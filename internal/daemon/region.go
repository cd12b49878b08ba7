package daemon

import (
	"fmt"
	"log/slog"
	"math/rand"
	"net/http"
	"time"

	"iris/internal/chaos"
	"iris/internal/control"
	"iris/internal/fabric"
	"iris/internal/fibermap"
	"iris/internal/flowsim"
	"iris/internal/history"
	"iris/internal/optics"
	"iris/internal/robust"
	"iris/internal/telemetry"
	"iris/internal/trace"
	"iris/internal/traffic"
)

// Region is the lifecycle a multi-region supervisor drives: one converged
// regional control plane that can be stepped, probed, inspected and
// scraped independently of its siblings. *Daemon is the canonical
// implementation; the fleet scheduler accepts any Region so its isolation
// properties are testable against fakes.
type Region interface {
	// Step runs one control-loop iteration and reports whether the
	// region's traffic feed is exhausted.
	Step() (done bool)
	// ProbeOnce probes device health and advances breaker state.
	ProbeOnce()
	// Healthy reports whether every device breaker is closed.
	Healthy() bool
	// ConvergedNow reports whether the region is healthy, repaired and
	// serving the latest allocation.
	ConvergedNow() bool
	// Status snapshots the region for aggregation.
	Status() Status
	// Demand returns the region's last-converged demand aggregate for the
	// inter-region demand bus (ok=false before the first convergence).
	Demand() (DemandSummary, bool)
	// Handler is the region's own debug/metrics HTTP surface, reverse-
	// proxied by the fleet under /regions/{id}/.
	Handler() http.Handler
	// Registry is the region's instance-scoped metrics registry, merged
	// region-labelled into the fleet-wide /metrics scrape.
	Registry() *telemetry.Registry
	// History is the region's reconfiguration history lake, aggregated by
	// the fleet's /api/history (nil when the region keeps no history).
	History() *history.Lake
}

// Daemon must satisfy the Region lifecycle it was factored from.
var _ Region = (*Daemon)(nil)

// DemandSummary is one region's hose-aggregate view of its current
// demand: what it publishes on the fleet's inter-region demand bus. The
// per-DC totals are exactly the hose-model aggregates (each DC's total
// send/receive demand), so cross-region consumers reason about skew
// without seeing full matrices.
type DemandSummary struct {
	// Step is the control-loop iteration the matrix was taken on.
	Step int `json:"step"`
	// Total is the matrix's total demand in wavelength units.
	Total float64 `json:"total"`
	// PerDC maps DC node id to its hose aggregate (sum of incident pair
	// demand), in wavelength units.
	PerDC map[int]float64 `json:"per_dc,omitempty"`
	// MaxPair is the largest single pair demand.
	MaxPair float64 `json:"max_pair"`
	// Pairs counts pairs with non-zero demand.
	Pairs int `json:"pairs"`
}

// Demand summarises the demand matrix the region last converged on.
func (d *Daemon) Demand() (DemandSummary, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.lastMatrix == nil {
		return DemandSummary{}, false
	}
	s := DemandSummary{
		Step:  d.steps,
		Total: d.lastMatrix.Total(),
		PerDC: d.lastMatrix.PerDC(),
	}
	for _, dm := range d.lastMatrix.Demand {
		if dm > 0 {
			s.Pairs++
			if dm > s.MaxPair {
				s.MaxPair = dm
			}
		}
	}
	return s, true
}

// RegionConfig describes one full region to assemble: the planned and
// materialised fabric, its evolving traffic feed with optional diurnal and
// flash-crowd shaping, optional chaos fault shims, optional flow-impact
// monitoring, and the daemon supervising it all. It is the single
// assembly path shared by cmd/irisd and the fleet supervisor, so the two
// cannot drift. Construct with DefaultRegionConfig and mutate.
type RegionConfig struct {
	// Spec names the region (the toy, or the map and placement of Seed
	// with DCs). Seed also seeds traffic and jitter; derived streams use
	// Seed+1..Seed+4 so one value pins the whole region.
	fibermap.Spec
	// DCCapacity and Lambda pass through to fabric bring-up (0 = its
	// defaults: 10 fiber-pairs, 40 wavelengths).
	DCCapacity int
	Lambda     int
	// OSSDelay is the emulated switch settling time.
	OSSDelay time.Duration
	// RPCTimeout is the per-device RPC deadline (0 = control default).
	RPCTimeout time.Duration

	// Control-loop knobs, forwarded to daemon.Config.
	Interval         time.Duration
	MaxBatch         int
	ProbeInterval    time.Duration
	FailureThreshold int
	BackoffBase      time.Duration
	BackoffMax       time.Duration

	// Steps bounds the traffic feed (0 = endless).
	Steps int
	// ShiftBound is the §6.3 change-process bound (≤0 = pair swaps).
	ShiftBound float64
	// Util is the traffic process's target hose utilisation.
	Util float64

	// TraceEvents sizes the region's flight recorder (0 disables tracing).
	TraceEvents int
	// HistoryRecords bounds the reconfiguration history lake (0 selects
	// the lake's default of 512; negative disables history entirely).
	HistoryRecords int
	// HistoryPath, when non-empty, persists history records as JSONL and
	// replays the file's tail on bring-up.
	HistoryPath string
	// Chaos wraps every device in a fault shim and arms a live injector.
	Chaos bool

	// Robust arms METTEOR-style robust reconfiguration: one envelope
	// allocation covers a window of matrices and reconfiguration is
	// skipped while the live demand stays inside it. The other three
	// fill robust.Config's Window, Headroom and Forecast (zero selects
	// robust.DefaultConfig's 4, 1.15 and no forecast); the forecast
	// branch rolls the feed's own change process.
	Robust         bool
	RobustWindow   int
	RobustHeadroom float64
	RobustForecast int

	// FlowLoad arms the flow-impact monitor; a zero FlowUtil, FlowWindow
	// or FlowGbps selects the monitor's default.
	FlowLoad   bool
	FlowDist   string
	FlowUtil   float64
	FlowWindow time.Duration
	FlowGbps   float64
	// Profile shapes demand and flow arrivals (diurnal + flash crowds);
	// the zero profile is flat.
	Profile traffic.LoadProfile

	// Registry receives the region's metrics (a fresh instance-scoped one
	// if nil — required when many regions share a process).
	Registry *telemetry.Registry
	// Logger receives structured logs (silent if nil).
	Logger *slog.Logger
	// Now is the clock (time.Now if nil; tests inject a fake).
	Now func() time.Time
}

// DefaultRegionConfig returns irisd's region defaults: the toy map (with
// -toy=false, fibermap.DefaultSpec's seed-1 8-DC region), 2 s
// control loop, 1 s probes, flat traffic at 0.7 hose utilisation, tracing
// on, chaos, robust mode and flow monitoring off. They are also the
// defaults RegisterFlags shows. The control-loop, RPC and robust values
// are read from where New, control and robust declare them; the flow
// monitor and the lake apply theirs (0.6, 4 s, 0.25; 512) to a zero
// field and give them no name to read.
func DefaultRegionConfig() RegionConfig {
	rb := robust.DefaultConfig()
	spec := fibermap.DefaultSpec()
	spec.Toy = true
	return RegionConfig{
		Spec:           spec,
		OSSDelay:       time.Duration(optics.OSSSwitchTimeMS) * time.Millisecond,
		RPCTimeout:     control.DefaultRPCTimeout,
		Interval:       defaultInterval,
		MaxBatch:       1,
		ProbeInterval:  defaultProbeInterval,
		ShiftBound:     0.4,
		Util:           0.7,
		TraceEvents:    4096,
		HistoryRecords: 512,
		RobustWindow:   rb.Window,
		RobustHeadroom: rb.Headroom,
		RobustForecast: 2,
		FlowDist:       "web2",
		FlowUtil:       0.6,
		FlowWindow:     4 * time.Second,
		FlowGbps:       0.25,
		// Off until -diurnal-amp or -flash-every says otherwise.
		Profile: traffic.LoadProfile{DiurnalPeriodS: 300, FlashDurationS: 5, FlashMult: 3},
	}
}

// BuiltRegion is one assembled region: the rig, the daemon supervising
// it, and every optional subsystem that was armed. Close tears the
// emulated testbed down.
type BuiltRegion struct {
	Daemon *Daemon
	Rig    *fabric.Rig
	// Feed is the daemon's traffic source after limiting/shaping/tracing.
	Feed traffic.Source
	// Devices and Injector are non-nil when Chaos was requested.
	Devices  *chaos.DeviceSet
	Injector *chaos.Injector
	// Monitor is non-nil when FlowLoad was requested.
	Monitor *flowsim.Monitor
	// Shape is the seeded diurnal/flash realisation (nil when flat).
	Shape *traffic.Shape
	// Tracer is the region's flight recorder (nil when disabled).
	Tracer *trace.Tracer
	// History is the region's reconfiguration history lake (nil when
	// disabled).
	History *history.Lake
	// Registry is the region's instance-scoped metrics registry.
	Registry *telemetry.Registry
}

// Close shuts the region's emulated testbed down and flushes the history
// lake's persistence file.
func (b *BuiltRegion) Close() {
	b.Rig.Close()
	_ = b.History.Close()
}

// BuildRegion assembles one region end to end: plan and materialise the
// fabric (optionally behind chaos fault shims), build the seeded evolving
// traffic feed with optional load shaping and step limiting, arm the
// injector and flow monitor on the region's registry, and construct the
// supervising daemon. It is the wiring cmd/irisd previously inlined,
// factored out so the fleet builds its N regions through the same path.
func BuildRegion(cfg RegionConfig) (*BuiltRegion, error) {
	var tracer *trace.Tracer
	if cfg.TraceEvents > 0 {
		tracer = trace.New(cfg.TraceEvents)
	}
	reg := cfg.Registry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}

	var devs *chaos.DeviceSet
	bringUp := fabric.BringUpConfig{
		Toy: cfg.Toy, Seed: cfg.Seed, DCs: cfg.DCs,
		DCCapacity: cfg.DCCapacity, Lambda: cfg.Lambda,
		OSSDelay: cfg.OSSDelay,
		Dial:     control.DialOptions{RPCTimeout: cfg.RPCTimeout},
		Tracer:   tracer,
	}
	if cfg.Chaos {
		devs = chaos.NewDeviceSet()
		bringUp.WrapDevice = devs.Wrap
	}
	rig, err := fabric.BringUp(bringUp)
	if err != nil {
		return nil, fmt.Errorf("daemon: build region: %w", err)
	}
	// Past this point every failure must tear the testbed down, or a fleet
	// bring-up that fails on region k would leak k-1 device sets: an error
	// returned through fail, and a panic (a second region registering on a
	// shared registry), which goes on once the testbed is closed.
	built := false
	defer func() {
		if !built {
			rig.Close()
		}
	}()
	fail := func(err error) (*BuiltRegion, error) {
		return nil, fmt.Errorf("daemon: build region: %w", err)
	}

	// Traffic: a heavy-tailed base matrix evolved by the §6.3 change
	// process, in wavelength units against each DC's hose capacity.
	caps := rig.Dep.Region.HoseCaps()
	m := rig.Dep.Region.Map
	base := traffic.HeavyTailed(rand.New(rand.NewSource(cfg.Seed)), m.DCs(), caps, cfg.Util)
	var feed traffic.Source = traffic.NewEvolver(cfg.Seed+1, base,
		traffic.ChangeProcess{Bound: cfg.ShiftBound, Caps: caps, Util: cfg.Util})

	var shape *traffic.Shape
	if !cfg.Profile.Flat() {
		shape, err = traffic.NewShape(cfg.Seed+2, cfg.Profile, (24 * time.Hour).Seconds())
		if err != nil {
			return fail(err)
		}
		feed = traffic.Shaped(feed, shape, cfg.Interval.Seconds(), caps)
	}
	if cfg.Steps > 0 {
		feed = traffic.Limit(feed, cfg.Steps)
	}
	feed = traffic.Traced(feed, tracer)

	// The injector and flow monitor share the region's registry so
	// iris_chaos_* and iris_flowsim_* land on the same scrape as the
	// control-loop metrics.
	var inj *chaos.Injector
	if cfg.Chaos {
		inj, err = chaos.NewInjector(chaos.InjectorConfig{
			Devices:  devs,
			Fab:      rig.Fab,
			Tracer:   tracer,
			Registry: reg,
			Now:      cfg.Now,
		})
		if err != nil {
			return fail(err)
		}
	}
	var lake *history.Lake
	if cfg.HistoryRecords >= 0 {
		lake, err = history.New(history.Config{
			Capacity: cfg.HistoryRecords,
			Path:     cfg.HistoryPath,
			Registry: reg,
		})
		if err != nil {
			return fail(err)
		}
	}
	var mon *flowsim.Monitor
	if cfg.FlowLoad {
		dist, ok := traffic.WorkloadByName(cfg.FlowDist)
		if !ok {
			return fail(fmt.Errorf("unknown flow workload %q (want web1, web2, hadoop or cache)", cfg.FlowDist))
		}
		mon, err = flowsim.NewMonitor(flowsim.MonitorConfig{
			Seed: cfg.Seed + 3, Dist: dist, Util: cfg.FlowUtil,
			GbpsPerWavelength: cfg.FlowGbps,
			WindowS:           cfg.FlowWindow.Seconds(),
			Shape:             shape,
			Registry:          reg,
		})
		if err != nil {
			return fail(err)
		}
	}

	var pol *robust.Config
	if cfg.Robust {
		pol = &robust.Config{
			Window:   cfg.RobustWindow,
			Headroom: cfg.RobustHeadroom,
			Forecast: cfg.RobustForecast,
			CP:       traffic.ChangeProcess{Bound: cfg.ShiftBound, Caps: caps, Util: cfg.Util},
			Seed:     cfg.Seed + 4,
		}
	}

	d, err := New(Config{
		Fab:              rig.Fab,
		Controller:       rig.Testbed.Controller,
		Feed:             feed,
		Interval:         cfg.Interval,
		MaxBatch:         cfg.MaxBatch,
		ProbeInterval:    cfg.ProbeInterval,
		FailureThreshold: cfg.FailureThreshold,
		BackoffBase:      cfg.BackoffBase,
		BackoffMax:       cfg.BackoffMax,
		Seed:             cfg.Seed,
		Registry:         reg,
		Now:              cfg.Now,
		Logger:           cfg.Logger,
		Tracer:           tracer,
		Chaos:            inj,
		FlowMonitor:      mon,
		History:          lake,
		Robust:           pol,
	})
	if err != nil {
		return fail(err)
	}
	built = true
	return &BuiltRegion{
		Daemon:   d,
		Rig:      rig,
		Feed:     feed,
		Devices:  devs,
		Injector: inj,
		Monitor:  mon,
		Shape:    shape,
		Tracer:   tracer,
		History:  lake,
		Registry: reg,
	}, nil
}
