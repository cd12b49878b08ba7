package chaos

import (
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"iris/internal/control"
	"iris/internal/fabric"
	"iris/internal/httpjson"
	"iris/internal/jsonw"
	"iris/internal/telemetry"
	"iris/internal/trace"
)

// errInjected is the error a faulted device returns for every operation,
// probes included, so injected failures are fully visible to the daemon's
// supervision and attributable in its traces.
var errInjected = errors.New("chaos: injected fault")

// DeviceSet wraps a fabric's emulated devices with fault shims. Install
// Wrap as fabric.BringUpConfig.WrapDevice before bring-up; the set then
// knows every served device and can fail or restore any of them at will.
// Overlapping faults on one device are reference-counted.
type DeviceSet struct {
	mu   sync.Mutex
	devs map[string]*faultDevice
}

// NewDeviceSet returns an empty device set.
func NewDeviceSet() *DeviceSet {
	return &DeviceSet{devs: make(map[string]*faultDevice)}
}

// Wrap shims one device, recording it under its name. It is the
// fabric.BringUpConfig.WrapDevice hook.
func (s *DeviceSet) Wrap(name string, dev control.Device) control.Device {
	f := &faultDevice{Device: dev}
	s.mu.Lock()
	s.devs[name] = f
	s.mu.Unlock()
	return f
}

// has reports whether a device was wrapped under the given name.
func (s *DeviceSet) has(name string) bool {
	s.mu.Lock()
	_, ok := s.devs[name]
	s.mu.Unlock()
	return ok
}

// addFault starts failing the named device (reference-counted).
func (s *DeviceSet) addFault(name string) {
	s.mu.Lock()
	d := s.devs[name]
	s.mu.Unlock()
	d.faults.Add(1)
}

// removeFault undoes one addFault on the named device.
func (s *DeviceSet) removeFault(name string) {
	s.mu.Lock()
	d := s.devs[name]
	s.mu.Unlock()
	d.faults.Add(-1)
}

// faultDevice fails every operation while at least one fault is active on
// it, and otherwise delegates to the wrapped device.
type faultDevice struct {
	control.Device
	faults atomic.Int64
}

func (f *faultDevice) Handle(op string, args map[string]any) (map[string]any, error) {
	if f.faults.Load() > 0 {
		return nil, errInjected
	}
	return f.Device.Handle(op, args)
}

// Fault is one live injection: a scenario materialised as device failures.
type Fault struct {
	ID         uint64     `json:"id"`
	Scenario   Scenario   `json:"scenario"`
	Devices    []string   `json:"devices"`
	InjectedAt time.Time  `json:"injected_at"`
	RestoredAt *time.Time `json:"restored_at,omitempty"`
}

func (f Fault) AppendJSON(b []byte) []byte {
	b = jsonw.Uint(append(b, `{"id":`...), f.ID)
	b = f.Scenario.AppendJSON(append(b, `,"scenario":`...))
	b = jsonw.Strings(append(b, `,"devices":`...), f.Devices)
	b = jsonw.Time(append(b, `,"injected_at":`...), f.InjectedAt)
	if f.RestoredAt != nil {
		b = jsonw.Time(append(b, `,"restored_at":`...), *f.RestoredAt)
	}
	return append(b, '}')
}

// InjectorConfig parameterises an Injector. Devices and Fab are required.
type InjectorConfig struct {
	// Devices is the fault-shimmed device set the fabric was brought up
	// with.
	Devices *DeviceSet
	// Fab resolves scenarios to device names.
	Fab *fabric.Fabric
	// Tracer journals chaos cycles (nil disables tracing).
	Tracer *trace.Tracer
	// Registry receives the iris_chaos_* metrics (a fresh one if nil).
	Registry *telemetry.Registry
	// Now is the clock (time.Now if nil; tests inject a fake).
	Now func() time.Time
}

// Injector turns failure scenarios into live device faults and heals them
// again. The daemon drives whole recovery cycles with it
// (daemon.Daemon.ChaosCycle). It is safe for concurrent use.
type Injector struct {
	devs   *DeviceSet
	fab    *fabric.Fabric
	tracer *trace.Tracer
	now    func() time.Time

	fallbackID atomic.Uint64

	mu      sync.Mutex
	active  map[uint64]*Fault
	history []Fault // restored faults, oldest first, bounded
	order   []uint64

	injections  *telemetry.CounterVec
	restores    *telemetry.Counter
	activeGauge *telemetry.Gauge
}

// historyCap bounds the restored-fault journal kept for /debug/chaos.
const historyCap = 64

// NewInjector validates the configuration and prepares an injector.
func NewInjector(cfg InjectorConfig) (*Injector, error) {
	if cfg.Devices == nil || cfg.Fab == nil {
		return nil, fmt.Errorf("chaos: Devices and Fab are required")
	}
	reg := cfg.Registry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	in := &Injector{
		devs:   cfg.Devices,
		fab:    cfg.Fab,
		tracer: cfg.Tracer,
		now:    now,
		active: make(map[uint64]*Fault),
	}
	in.injections = reg.CounterVec("iris_chaos_injections_total", "Chaos faults injected, by scenario kind.", "kind")
	in.restores = reg.Counter("iris_chaos_restores_total", "Chaos faults restored.")
	in.activeGauge = reg.Gauge("iris_chaos_active_faults", "Currently injected chaos faults.")
	return in, nil
}

// nextID allocates a fault ID from the tracer's ID space when one is
// configured, so chaos traces never collide with reconfiguration traces.
func (in *Injector) nextID() uint64 {
	if id := in.tracer.NextID(); id != 0 {
		return id
	}
	return in.fallbackID.Add(1)
}

// targetsFor maps a scenario to the device names its injection fails:
//
//   - ductCut: the OSS at each cut duct's endpoints (the line cards facing
//     the duct) — deduplicated across ducts.
//   - hutLoss: the hut's OSS, plus its amplifier if one is deployed.
//   - ampFailure: the site's amplifier group.
//   - dcLoss: the DC's OSS and its transceiver bank.
//   - geoEvent: the OSS of every node inside the radius, plus the OSS at
//     the endpoints of every severed duct.
//
// Only devices that exist on the fabric (and were wrapped) are returned;
// an empty result means the scenario has no live footprint.
func (in *Injector) targetsFor(sc Scenario) []string {
	m := in.fab.Deployment().Region.Map
	seen := make(map[string]bool)
	var out []string
	add := func(name string) {
		if name != "" && !seen[name] && in.devs.has(name) {
			seen[name] = true
			out = append(out, name)
		}
	}
	endpoints := func() {
		for _, id := range sc.Ducts {
			d := m.Ducts[id]
			add(in.fab.OSSName(d.A))
			add(in.fab.OSSName(d.B))
		}
	}
	switch sc.Kind {
	case ductCut:
		endpoints()
	case hutLoss:
		add(in.fab.OSSName(sc.Node))
		add(in.fab.AmpName(sc.Node))
	case ampFailure:
		add(in.fab.AmpName(sc.Node))
	case dcLoss:
		add(in.fab.OSSName(sc.Node))
		add(in.fab.XcvrName(sc.Node))
	case geoEvent:
		for _, n := range m.Nodes {
			if n.Pos.Dist(sc.Center) <= sc.RadiusKM {
				add(in.fab.OSSName(n.ID))
			}
		}
		endpoints()
	}
	sort.Strings(out)
	return out
}

// Inject materialises a scenario as live device faults and returns the
// fault handle. It fails if the scenario maps to no live devices.
func (in *Injector) Inject(sc Scenario) (Fault, error) {
	targets := in.targetsFor(sc)
	if len(targets) == 0 {
		return Fault{}, fmt.Errorf("chaos: scenario %q maps to no live devices", sc.Name)
	}
	f := &Fault{
		ID:         in.nextID(),
		Scenario:   sc,
		Devices:    targets,
		InjectedAt: in.now(),
	}
	for _, name := range targets {
		in.devs.addFault(name)
	}
	in.mu.Lock()
	in.active[f.ID] = f
	in.order = append(in.order, f.ID)
	n := len(in.active)
	in.mu.Unlock()
	in.injections.With(sc.Kind.String()).Inc()
	in.activeGauge.Set(float64(n))
	in.tracer.Emit(f.ID, "chaos-inject", "", sc.Name)
	return *f, nil
}

// Restore heals the devices of one active fault.
func (in *Injector) Restore(id uint64) error {
	in.mu.Lock()
	f, ok := in.active[id]
	if !ok {
		in.mu.Unlock()
		return fmt.Errorf("chaos: no active fault %d", id)
	}
	delete(in.active, id)
	for i, v := range in.order {
		if v == id {
			in.order = append(in.order[:i], in.order[i+1:]...)
			break
		}
	}
	at := in.now()
	f.RestoredAt = &at
	in.history = append(in.history, *f)
	if len(in.history) > historyCap {
		in.history = in.history[len(in.history)-historyCap:]
	}
	n := len(in.active)
	in.mu.Unlock()
	for _, name := range f.Devices {
		in.devs.removeFault(name)
	}
	in.restores.Inc()
	in.activeGauge.Set(float64(n))
	in.tracer.Emit(f.ID, "chaos-restore", "", f.Scenario.Name)
	return nil
}

// restoreAll heals every active fault, oldest first.
func (in *Injector) restoreAll() {
	in.mu.Lock()
	ids := append([]uint64(nil), in.order...)
	in.mu.Unlock()
	for _, id := range ids {
		_ = in.Restore(id)
	}
}

// Status is the injector's introspection snapshot, embedded in irisd's
// /status and served on /debug/chaos.
type Status struct {
	ActiveFaults int     `json:"active_faults"`
	Active       []Fault `json:"active,omitempty"`
	// History lists restored faults, oldest first (bounded).
	History    []Fault `json:"history,omitempty"`
	Injections int     `json:"injections"`
	Restores   int     `json:"restores"`
}

func (st Status) AppendJSON(b []byte) []byte {
	b = jsonw.Int(append(b, `{"active_faults":`...), st.ActiveFaults)
	if len(st.Active) > 0 {
		b = jsonw.Slice(append(b, `,"active":`...), st.Active)
	}
	if len(st.History) > 0 {
		b = jsonw.Slice(append(b, `,"history":`...), st.History)
	}
	b = jsonw.Int(append(b, `,"injections":`...), st.Injections)
	b = jsonw.Int(append(b, `,"restores":`...), st.Restores)
	return append(b, '}')
}

// Snapshot returns the injector's current state.
func (in *Injector) Snapshot() Status {
	in.mu.Lock()
	defer in.mu.Unlock()
	st := Status{
		ActiveFaults: len(in.active),
		Injections:   len(in.active) + len(in.history),
		Restores:     len(in.history),
	}
	for _, id := range in.order {
		st.Active = append(st.Active, *in.active[id])
	}
	st.History = append(st.History, in.history...)
	return st
}

// Handler serves the injector's HTTP surface, mounted by irisd at
// /debug/chaos:
//
//	GET  — Snapshot as JSON
//	POST — ?action=inject&kind=cut&duct=3&duct=7 [&auto_restore=2s]
//	       ?action=inject&kind=hut|dc|amp&node=4
//	       ?action=inject&kind=geo&x=1.5&y=-3&radius=2
//	       ?action=restore&id=N
//	       ?action=restore_all
//
// Inject responds with the created Fault; auto_restore schedules the
// restore after the given duration.
func (in *Injector) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			httpjson.Write(w, http.StatusOK, in.Snapshot())
			return
		}
		q := r.URL.Query()
		switch q.Get("action") {
		case "inject":
			sc, err := ScenarioFromQuery(in.fab.Deployment().Region.Map, q)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			var after time.Duration
			if v := q.Get("auto_restore"); v != "" {
				if after, err = time.ParseDuration(v); err != nil || after <= 0 {
					http.Error(w, "bad auto_restore duration", http.StatusBadRequest)
					return
				}
			}
			f, err := in.Inject(sc)
			if err != nil {
				http.Error(w, err.Error(), http.StatusConflict)
				return
			}
			if after > 0 {
				time.AfterFunc(after, func() { _ = in.Restore(f.ID) })
			}
			httpjson.Write(w, http.StatusOK, f)
		case "restore":
			id, err := strconv.ParseUint(q.Get("id"), 10, 64)
			if err != nil {
				http.Error(w, "bad fault id", http.StatusBadRequest)
				return
			}
			if err := in.Restore(id); err != nil {
				http.Error(w, err.Error(), http.StatusNotFound)
				return
			}
			httpjson.Write(w, http.StatusOK, in.Snapshot())
		case "restore_all":
			in.restoreAll()
			httpjson.Write(w, http.StatusOK, in.Snapshot())
		default:
			http.Error(w, "unknown action (want inject, restore or restore_all)", http.StatusBadRequest)
		}
	})
}
