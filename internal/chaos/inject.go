package chaos

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"iris/internal/control"
	"iris/internal/core"
	"iris/internal/fabric"
	"iris/internal/history"
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

// Injector turns failure scenarios into live device faults and drives
// recovery cycles against a control plane. It is safe for concurrent use.
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
	cycles      *telemetry.Counter
	cycleFails  *telemetry.Counter
	detectSecs  *telemetry.Histogram
	repairSecs  *telemetry.Histogram
}

// historyCap bounds the restored-fault journal kept for /debug/chaos.
const historyCap = 64

// cycleBuckets cover driven test cycles (fake clocks, milliseconds) up to
// live cycles paced by probe intervals and breaker cooldowns.
var cycleBuckets = []float64{.0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10, 30}

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
	in.cycles = reg.Counter("iris_chaos_cycles_total", "Completed inject-detect-restore-heal-replan cycles.")
	in.cycleFails = reg.Counter("iris_chaos_cycle_failures_total", "Chaos cycles that failed or timed out.")
	in.detectSecs = reg.Histogram("iris_chaos_detect_seconds", "Injection-to-detection latency (fault injected until the control plane reports unhealthy).", cycleBuckets)
	in.repairSecs = reg.Histogram("iris_chaos_repair_seconds", "Restore-to-repair latency (fault restored until the control plane reconverges).", cycleBuckets)
	return in, nil
}

// nextID allocates a fault/cycle ID from the tracer's ID space when one is
// configured, so chaos traces never collide with reconfiguration traces.
func (in *Injector) nextID() uint64 {
	if id := in.tracer.NextID(); id != 0 {
		return id
	}
	return in.fallbackID.Add(1)
}

// TargetsFor maps a scenario to the device names its injection fails:
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
func (in *Injector) TargetsFor(sc Scenario) []string {
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

// inject materialises a scenario as live device faults and returns the
// fault handle. It fails if the scenario maps to no live devices.
func (in *Injector) inject(sc Scenario) (Fault, error) {
	targets := in.TargetsFor(sc)
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

// restore heals the devices of one active fault.
func (in *Injector) restore(id uint64) error {
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
		_ = in.restore(id)
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

// ControlPlane is the slice of the irisd daemon a chaos cycle drives. The
// daemon satisfies it; chaos deliberately does not import the daemon
// package (the daemon imports chaos to expose /debug/chaos).
type ControlPlane interface {
	// Healthy reports whether every device breaker is closed.
	Healthy() bool
	// ConvergedNow reports whether the region is healthy, repaired and
	// serving the latest allocation.
	ConvergedNow() bool
	// RepairNow runs one anti-entropy repair pass, journaling its spans
	// under the span carried by ctx.
	RepairNow(ctx context.Context) error
}

// CycleConfig parameterises one RunCycle.
type CycleConfig struct {
	Scenario Scenario
	CP       ControlPlane
	// Pump advances the control plane one step between condition checks:
	// tests call ProbeOnce/Step and advance a fake clock; nil sleeps
	// PollInterval (live daemons progress on their own loop).
	Pump func()
	// PollInterval paces the default pump (default 50ms).
	PollInterval time.Duration
	// Timeout bounds each wait phase (default 30s).
	Timeout time.Duration
	// History, when non-nil, receives one record per cycle — success or
	// failure — under the cycle's trace ID.
	History *history.Lake
	// Books supplies the control plane's committed allocation and hose
	// aggregate; RunCycle calls it before injecting and after settling to
	// compute the cycle's allocation diff. Required for records to carry
	// pair/duct deltas (nil leaves them empty).
	Books func() (core.Allocation, history.HoseAggregate)
	// SettleExtra, when non-nil, is ANDed with CP.ConvergedNow during the
	// settle wait. The daemon's cycle endpoint uses it to hold the cycle
	// open until a post-recovery reconfiguration has actually committed,
	// so the emitted record's diff is never an accident of timing.
	SettleExtra func() bool
}

// CycleResult reports one completed chaos cycle.
type CycleResult struct {
	// TraceID identifies the cycle's span tree: chaos-cycle → inject,
	// detect, restore, heal, replan (fetch-state, reconfigure phases,
	// audit), settle.
	TraceID uint64        `json:"trace_id"`
	Fault   Fault         `json:"fault"`
	Detect  time.Duration `json:"detect"`
	Repair  time.Duration `json:"repair"`
	Total   time.Duration `json:"total"`
}

// RunCycle drives the control plane through one full failure-recovery
// cycle: inject the scenario's faults, wait for the supervision to detect
// them (a breaker opens), restore the devices, wait for the breaker to
// close, run a repair pass, and wait for reconvergence. Detection and
// repair latencies are measured and recorded in the iris_chaos_* metrics;
// the whole cycle is journaled as one trace.
func (in *Injector) RunCycle(cfg CycleConfig) (*CycleResult, error) {
	if cfg.CP == nil {
		return nil, fmt.Errorf("chaos: CycleConfig.CP is required")
	}
	poll := cfg.PollInterval
	if poll <= 0 {
		poll = 50 * time.Millisecond
	}
	pump := cfg.Pump
	if pump == nil {
		pump = func() { time.Sleep(poll) }
	}
	timeout := cfg.Timeout
	if timeout <= 0 {
		timeout = 30 * time.Second
	}

	id := in.nextID()
	root := in.tracer.Start(id, "chaos-cycle")
	root.SetAttr(cfg.Scenario.Name)
	t0 := in.now()

	// Bracket the cycle for the history lake: pre-state now, post-state
	// and the record after the root span lands in the flight recorder.
	var preAlloc core.Allocation
	var preHose history.HoseAggregate
	if cfg.History != nil && cfg.Books != nil {
		preAlloc, preHose = cfg.Books()
	}
	preHealth := history.Health{Healthy: cfg.CP.Healthy(), Converged: cfg.CP.ConvergedNow()}
	emit := func(opErr error) {
		if cfg.History == nil {
			return
		}
		rec := history.Record{
			ReconfigID: id,
			Trigger:    history.TriggerChaos,
			At:         t0,
			Duration:   in.now().Sub(t0),
			PreHealth:  preHealth,
			PostHealth: history.Health{Healthy: cfg.CP.Healthy(), Converged: cfg.CP.ConvergedNow()},
			PreHose:    preHose,
		}
		if opErr != nil {
			rec.Err = opErr.Error()
		}
		if cfg.Books != nil {
			postAlloc, postHose := cfg.Books()
			rec.PostHose = postHose
			rec.Pairs = core.DiffAlloc(preAlloc, postAlloc)
			rec.Ducts = in.fab.Deployment().DuctDeltas(rec.Pairs)
		}
		rec.Spans = in.tracer.Events(trace.Filter{TraceID: id})
		cfg.History.Append(rec)
	}

	fail := func(err error) (*CycleResult, error) {
		in.cycleFails.Inc()
		root.Fail(err)
		root.Finish()
		emit(err)
		return nil, err
	}
	wait := func(name string, cond func() bool) (time.Duration, error) {
		sp := root.Child(name)
		start := in.now()
		for !cond() {
			if in.now().Sub(start) > timeout {
				err := fmt.Errorf("chaos: %s timed out after %v", name, timeout)
				sp.Fail(err)
				sp.Finish()
				return 0, err
			}
			pump()
		}
		sp.Finish()
		return in.now().Sub(start), nil
	}

	isp := root.Child("inject")
	f, err := in.inject(cfg.Scenario)
	if err != nil {
		isp.Fail(err)
		isp.Finish()
		return fail(err)
	}
	isp.SetAttr(fmt.Sprintf("devices=%d", len(f.Devices)))
	isp.Finish()

	detect, err := wait("detect", func() bool { return !cfg.CP.Healthy() })
	if err != nil {
		_ = in.restore(f.ID)
		return fail(err)
	}
	in.detectSecs.Observe(detect.Seconds())

	rsp := root.Child("restore")
	if err := in.restore(f.ID); err != nil {
		rsp.Fail(err)
		rsp.Finish()
		return fail(err)
	}
	rsp.Finish()
	repairStart := in.now()

	if _, err := wait("heal", cfg.CP.Healthy); err != nil {
		return fail(err)
	}

	psp := root.Child("replan")
	err = cfg.CP.RepairNow(trace.ContextWith(context.Background(), psp))
	psp.Fail(err)
	psp.Finish()
	if err != nil {
		return fail(fmt.Errorf("chaos: replan: %w", err))
	}

	settled := func() bool {
		return cfg.CP.ConvergedNow() && (cfg.SettleExtra == nil || cfg.SettleExtra())
	}
	if _, err := wait("settle", settled); err != nil {
		return fail(err)
	}
	repair := in.now().Sub(repairStart)
	in.repairSecs.Observe(repair.Seconds())
	in.cycles.Inc()
	root.Finish()
	emit(nil)
	return &CycleResult{
		TraceID: id,
		Fault:   f,
		Detect:  detect,
		Repair:  repair,
		Total:   in.now().Sub(t0),
	}, nil
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
		writeJSON := func(v any) {
			body, _ := json.Marshal(v)
			w.Header().Set("Content-Type", "application/json")
			_, _ = w.Write(body)
		}
		if r.Method != http.MethodPost {
			writeJSON(in.Snapshot())
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
			f, err := in.inject(sc)
			if err != nil {
				http.Error(w, err.Error(), http.StatusConflict)
				return
			}
			if v := q.Get("auto_restore"); v != "" {
				d, err := time.ParseDuration(v)
				if err != nil || d <= 0 {
					http.Error(w, "bad auto_restore duration", http.StatusBadRequest)
					return
				}
				id := f.ID
				time.AfterFunc(d, func() { _ = in.restore(id) })
			}
			writeJSON(f)
		case "restore":
			id, err := strconv.ParseUint(q.Get("id"), 10, 64)
			if err != nil {
				http.Error(w, "bad fault id", http.StatusBadRequest)
				return
			}
			if err := in.restore(id); err != nil {
				http.Error(w, err.Error(), http.StatusNotFound)
				return
			}
			writeJSON(in.Snapshot())
		case "restore_all":
			in.restoreAll()
			writeJSON(in.Snapshot())
		default:
			http.Error(w, "unknown action (want inject, restore or restore_all)", http.StatusBadRequest)
		}
	})
}
