// Package fleet is the planet-scale layer above irisd: one supervisor
// owning N regional control planes — each a full daemon.BuildRegion
// region with its own traffic feed, allocation state, flow monitor and
// chaos injector — plus a sharded convergence scheduler that steps them
// concurrently under a bounded worker pool.
//
// The scheduler's isolation contract is skip-if-busy: every round
// dispatches exactly the regions that are idle at that instant, so one
// region pinned by a chaos cycle (or simply slow to converge) never
// stalls its siblings. Regions whose traffic feed is exhausted keep
// getting health probes — late faults are still detected — but consume no
// more feed steps.
//
// Regions exchange demand through a gossip-style bus: after each
// convergence a region publishes its hose aggregate (daemon.DemandSummary)
// and the fleet distils cross-region demand skew into first-class signals
// (iris_fleet_demand_skew, iris_fleet_demand_cv, /status skew report).
//
// The fleet's HTTP plane aggregates the regions': /metrics merges every
// region's registry region-labelled into one scrape, /status summarises
// all regions, and /regions/{id}/ reverse-proxies to each region's own
// debug surface.
package fleet

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"iris/internal/daemon"
	"iris/internal/parallel"
	"iris/internal/telemetry"
	"iris/internal/trace"
)

// seedStride separates consecutive regions' seed spaces. BuildRegion
// derives streams from Seed..Seed+3, so any stride ≥ 4 keeps regions
// statistically independent; a wide stride also keeps the spaces disjoint
// under future derived streams.
const seedStride = 1000

// Config describes a fleet. Construct with DefaultConfig and mutate.
type Config struct {
	// Regions is the number of regions to build and supervise.
	Regions int
	// Seed pins the whole fleet: region i is built with
	// Seed + i*seedStride, so one value reproduces every region's map,
	// traffic and jitter.
	Seed int64
	// Workers bounds the scheduler's worker pool (≤0 = GOMAXPROCS). All
	// region bring-up and stepping happens on at most this many
	// goroutines regardless of fleet size.
	Workers int
	// Interval is Run's round cadence.
	Interval time.Duration
	// Region is the per-region template. Its Seed, Registry and Logger
	// are overridden per region: seeds derived from Config.Seed, a fresh
	// instance-scoped registry per region (shared registries panic — see
	// telemetry), and the fleet logger with a region attribute.
	Region daemon.RegionConfig
	// Registry receives the fleet-level iris_fleet_* metrics (a fresh one
	// if nil). Region metrics stay on per-region registries and are
	// merged region-labelled into the /metrics scrape.
	Registry *telemetry.Registry
	// Tracer records fleet-level spans: fleet-round roots with per-region
	// region-step children, and fleet-chaos spans parenting storm cycles.
	// Nil disables fleet tracing (regions keep their own recorders).
	Tracer *trace.Tracer
	// Logger receives structured logs (silent if nil).
	Logger *slog.Logger
	// Now is the clock (time.Now if nil; tests inject a fake).
	Now func() time.Time
}

// DefaultConfig returns a small deterministic fleet: 4 toy regions,
// seed 1, 2 s rounds, worker pool sized to the host.
func DefaultConfig() Config {
	return Config{
		Regions:  4,
		Seed:     1,
		Interval: 2 * time.Second,
		Region:   daemon.DefaultRegionConfig(),
	}
}

// member is one supervised region plus its scheduling state.
type member struct {
	id    string
	r     daemon.Region
	built *daemon.BuiltRegion
	// busy marks the region as owned by an in-flight task — a scheduler
	// step or a pinned chaos cycle. Rounds skip busy members instead of
	// waiting, which is the fleet's whole isolation mechanism.
	busy atomic.Bool
	// done marks the region's traffic feed exhausted. Done members still
	// get probed every round (fault detection never stops) but consume no
	// more feed steps.
	done atomic.Bool
}

// Fleet supervises N regions: builds them, steps them concurrently,
// relays their demand aggregates over the bus, and serves the aggregated
// HTTP plane.
type Fleet struct {
	cfg     Config
	members []*member
	bus     *bus
	reg     *telemetry.Registry
	tracer  *trace.Tracer
	log     *slog.Logger
	now     func() time.Time

	// sem bounds the worker pool all region step tasks run under;
	// inflight tracks dispatched-but-unfinished tasks for Quiesce.
	sem      chan struct{}
	inflight sync.WaitGroup

	rounds        *telemetry.Counter
	regionSteps   *telemetry.Counter
	skippedBusy   *telemetry.Counter
	chaosCycles   *telemetry.Counter
	chaosFailures *telemetry.Counter
	regionsGauge  *telemetry.Gauge
	convergedG    *telemetry.Gauge
	doneG         *telemetry.Gauge
	skewG         *telemetry.Gauge
	cvG           *telemetry.Gauge
	stepSecs      *telemetry.Histogram
}

// New builds the fleet: N regions assembled in parallel through
// daemon.BuildRegion (bounded by Workers), each with a derived seed and
// its own registry. On any bring-up failure every already-built region is
// torn down before the error is returned.
func New(cfg Config) (*Fleet, error) {
	f, err := newSupervisor(cfg)
	if err != nil {
		return nil, err
	}
	cfg = f.cfg
	log := f.log

	f.members = make([]*member, cfg.Regions)
	err = parallel.ForEach(cfg.Regions, cfg.Workers, func(i int) error {
		rc := cfg.Region
		rc.Seed = cfg.Seed + int64(i)*seedStride
		rc.Registry = nil // always instance-scoped; sharing panics
		rc.Now = cfg.Now
		id := RegionID(i)
		rc.Logger = log.With("region", id)
		b, err := daemon.BuildRegion(rc)
		if err != nil {
			return fmt.Errorf("region %s: %w", id, err)
		}
		f.members[i] = &member{id: id, r: b.Daemon, built: b}
		return nil
	})
	if err != nil {
		for _, m := range f.members {
			if m != nil {
				m.built.Close()
			}
		}
		return nil, fmt.Errorf("fleet: %w", err)
	}
	f.regionsGauge.Set(float64(cfg.Regions))
	log.Info("fleet up", "regions", cfg.Regions, "seed", cfg.Seed, "workers", cfg.Workers)
	return f, nil
}

// newSupervisor validates the config and builds the memberless fleet
// core — scheduler state, bus, metrics. Tests use it to run the
// scheduler over fake regions; New attaches real built regions.
func newSupervisor(cfg Config) (*Fleet, error) {
	if cfg.Regions <= 0 {
		return nil, fmt.Errorf("fleet: Regions must be ≥ 1, got %d", cfg.Regions)
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 2 * time.Second
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	log := cfg.Logger
	if log == nil {
		log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	reg := cfg.Registry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	f := &Fleet{
		cfg:    cfg,
		bus:    newBus(now),
		reg:    reg,
		tracer: cfg.Tracer,
		log:    log,
		now:    now,
		sem:    make(chan struct{}, workers),

		rounds:        reg.Counter("iris_fleet_rounds_total", "Scheduler rounds completed."),
		regionSteps:   reg.Counter("iris_fleet_region_steps_total", "Region control-loop steps dispatched by the scheduler."),
		skippedBusy:   reg.Counter("iris_fleet_steps_skipped_busy_total", "Round dispatches skipped because the region was busy (pinned by chaos or still converging)."),
		chaosCycles:   reg.Counter("iris_fleet_chaos_cycles_total", "Fleet-coordinated chaos cycles completed."),
		chaosFailures: reg.Counter("iris_fleet_chaos_failures_total", "Fleet-coordinated chaos cycles that failed."),
		regionsGauge:  reg.Gauge("iris_fleet_regions", "Regions supervised."),
		convergedG:    reg.Gauge("iris_fleet_regions_converged", "Regions converged at the end of the last round."),
		doneG:         reg.Gauge("iris_fleet_regions_done", "Regions whose traffic feed is exhausted."),
		skewG:         reg.Gauge("iris_fleet_demand_skew", "Cross-region demand skew: max region demand over mean."),
		cvG:           reg.Gauge("iris_fleet_demand_cv", "Cross-region demand coefficient of variation."),
		stepSecs:      reg.Histogram("iris_fleet_region_step_seconds", "Wall time per region step task (probe + control-loop step).", []float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5}),
	}
	return f, nil
}

// RegionID formats the canonical region identifier for index i: r000,
// r001, … — the id used in /regions/{id}/ paths and the region metric
// label.
func RegionID(i int) string { return fmt.Sprintf("r%03d", i) }

// Regions returns the fleet's region count.
func (f *Fleet) Regions() int { return len(f.members) }

// Region returns region id's lifecycle handle, or false if unknown.
func (f *Fleet) Region(id string) (daemon.Region, bool) {
	if m := f.member(id); m != nil {
		return m.r, true
	}
	return nil, false
}

func (f *Fleet) member(id string) *member {
	for _, m := range f.members {
		if m.id == id {
			return m
		}
	}
	return nil
}

// Round runs one scheduler round: every idle region gets a probe+step
// task dispatched onto the fleet's bounded worker pool, then Round
// returns — it does not wait for the tasks. Each task probes device
// health, advances the region's control loop unless its feed is
// exhausted, and publishes the region's demand aggregate on the bus.
//
// Busy regions — pinned by a chaos cycle, or still running a task from
// an earlier round — are skipped, not awaited. There is no round
// barrier at all: one region's slow convergence or pinned chaos cycle
// can never delay when its siblings are next stepped. That skip is the
// fleet's whole isolation mechanism.
//
// It returns the number of tasks dispatched and whether every region's
// feed was exhausted as of the start of the round.
func (f *Fleet) Round() (dispatched int, allDone bool) {
	root := f.tracer.Start(f.tracer.NextID(), "fleet-round")

	skipped, done := 0, 0
	for _, m := range f.members {
		if m.done.Load() {
			done++
		}
		if !m.busy.CompareAndSwap(false, true) {
			f.skippedBusy.Inc()
			skipped++
			continue
		}
		dispatched++
		f.inflight.Add(1)
		go f.stepMember(m, root)
	}

	converged := 0
	for _, m := range f.members {
		if m.r.ConvergedNow() {
			converged++
		}
	}
	f.convergedG.Set(float64(converged))
	f.doneG.Set(float64(done))
	if sk := f.bus.skew(); sk.Regions > 0 {
		f.skewG.Set(sk.Skew)
		f.cvG.Set(sk.CV)
	}
	f.rounds.Inc()
	root.SetAttr(fmt.Sprintf("dispatched=%d skipped=%d converged=%d",
		dispatched, skipped, converged))
	root.Finish()
	return dispatched, done == len(f.members)
}

// stepMember is one region's task for one round: acquire a pool slot,
// probe, step (unless the feed is exhausted), publish demand, release
// the region. The busy flag is held from dispatch to completion, so a
// region never runs two tasks at once and later rounds skip it while
// this one is still going.
func (f *Fleet) stepMember(m *member, round *trace.Span) {
	defer f.inflight.Done()
	defer m.busy.Store(false)
	f.sem <- struct{}{}
	defer func() { <-f.sem }()

	start := f.now()
	sp := round.Child("region-step")
	sp.SetDevice(m.id)
	m.r.ProbeOnce()
	if !m.done.Load() {
		if m.r.Step() {
			m.done.Store(true)
			sp.SetAttr("feed exhausted")
		}
		f.regionSteps.Inc()
	}
	if dm, ok := m.r.Demand(); ok {
		f.bus.publish(m.id, dm)
	}
	if !m.r.ConvergedNow() {
		sp.Fail(fmt.Errorf("not converged"))
	}
	sp.Finish()
	f.stepSecs.Observe(f.now().Sub(start).Seconds())
}

// Quiesce blocks until every task dispatched so far has finished. Chaos
// cycles pin regions outside the task pool; Quiesce does not wait for
// them.
func (f *Fleet) Quiesce() { f.inflight.Wait() }

// Run drives rounds on the configured cadence until ctx is cancelled or
// every region's traffic feed is exhausted (never, for unbounded feeds).
func (f *Fleet) Run(ctx context.Context) error {
	ticker := time.NewTicker(f.cfg.Interval)
	defer ticker.Stop()
	for {
		if _, allDone := f.Round(); allDone {
			f.Quiesce()
			f.log.Info("all feeds exhausted", "rounds", f.rounds.Value())
			return nil
		}
		select {
		case <-ctx.Done():
			f.Quiesce()
			return ctx.Err()
		case <-ticker.C:
		}
	}
}

// Close waits for in-flight tasks and tears every region's emulated
// testbed down.
func (f *Fleet) Close() {
	f.Quiesce()
	_ = parallel.ForEach(len(f.members), f.cfg.Workers, func(i int) error {
		f.members[i].built.Close()
		return nil
	})
}

// RegionStatus is one region's row in the fleet status report.
type RegionStatus struct {
	ID        string  `json:"id"`
	Healthy   bool    `json:"healthy"`
	Converged bool    `json:"converged"`
	Done      bool    `json:"done"`
	Busy      bool    `json:"busy"`
	Steps     int     `json:"steps"`
	LastError string  `json:"last_error,omitempty"`
	Demand    float64 `json:"demand"`
}

// Status is the fleet-wide summary served on /status.
type Status struct {
	Regions   int            `json:"regions"`
	Converged int            `json:"converged"`
	Healthy   int            `json:"healthy"`
	Done      int            `json:"done"`
	Rounds    float64        `json:"rounds"`
	Skew      SkewReport     `json:"demand_skew"`
	PerRegion []RegionStatus `json:"per_region"`
}

// Status snapshots every region. Rows are ordered by region id.
func (f *Fleet) Status() Status {
	st := Status{
		Regions:   len(f.members),
		Rounds:    f.rounds.Value(),
		Skew:      f.bus.skew(),
		PerRegion: make([]RegionStatus, 0, len(f.members)),
	}
	for _, m := range f.members {
		ds := m.r.Status()
		row := RegionStatus{
			ID:        m.id,
			Healthy:   ds.Healthy,
			Converged: m.r.ConvergedNow(),
			Done:      m.done.Load(),
			Busy:      m.busy.Load(),
			Steps:     ds.Steps,
			LastError: ds.LastError,
		}
		if dm, ok := m.r.Demand(); ok {
			row.Demand = dm.Total
		}
		if row.Healthy {
			st.Healthy++
		}
		if row.Converged {
			st.Converged++
		}
		if row.Done {
			st.Done++
		}
		st.PerRegion = append(st.PerRegion, row)
	}
	sort.Slice(st.PerRegion, func(i, j int) bool { return st.PerRegion[i].ID < st.PerRegion[j].ID })
	return st
}
