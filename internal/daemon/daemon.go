// Package daemon implements irisd, the long-running regional control
// plane the paper's §5 controller implies, and is what irisfleet runs per
// region and irisctl steps. The daemon owns a materialised fabric and its
// controller and keeps the region converged as demand shifts:
//
//   - it ingests a traffic-matrix feed (internal/traffic.Source, stepping
//     like the §6.3 change process),
//   - computes the incremental circuit change each shift requires,
//   - executes it as a §5.2 drained reconfiguration
//     (drain → switch → amps → retune → undrain) against the device agents,
//   - closes every write, a commit's or a repair's, with an audit of the
//     states its writes answered with, and compares every device with
//     intent on every probe round, so drift in a region whose traffic
//     does not move is found and repaired too,
//   - supervises device health with the same periodic probes, per-device
//     exponential backoff with jitter, and a circuit breaker that
//     quarantines flapping devices,
//   - and degrades to the last-known-good allocation instead of crashing
//     when a device fails mid-reconfiguration, re-converging through a
//     reconciliation pass once the device heals.
//
// Reconfigurations are transactional against the fabric bookkeeping: each
// change is compiled on a clone of the fabric and the clone is committed
// only after the devices accepted every phase, so a failure leaves the
// daemon holding the last-known-good intent.
package daemon

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"iris/internal/chaos"
	"iris/internal/control"
	"iris/internal/core"
	"iris/internal/fabric"
	"iris/internal/flowsim"
	"iris/internal/history"
	"iris/internal/robust"
	"iris/internal/telemetry"
	"iris/internal/topoapi"
	"iris/internal/trace"
	"iris/internal/traffic"
)

// Config parameterises a Daemon. Fab, Controller and Feed are required;
// zero durations and counts select the defaults.
type Config struct {
	Fab        *fabric.Fabric
	Controller *control.Controller
	Feed       traffic.Source

	// Interval is the control-loop cadence: how often the daemon takes the
	// next traffic matrix and converges on it (default 2s).
	Interval time.Duration
	// MaxBatch bounds how many queued traffic shifts one Step coalesces
	// into a single convergence (default 1, no coalescing). When the feed
	// outpaces the loop — a burst of ticks between intervals — the daemon
	// folds the burst into one incremental solve against the newest matrix
	// instead of reconfiguring once per tick; skipped intermediates are
	// counted in iris_daemon_coalesced_shifts_total.
	MaxBatch int
	// ProbeInterval is the device health-probe cadence (default 1s).
	ProbeInterval time.Duration
	// FailureThreshold is the consecutive failures (probe or attributed
	// reconfiguration errors) that trip a device's breaker (default 3).
	FailureThreshold int
	// BackoffBase and BackoffMax bound the breaker's exponential cooldown
	// (defaults 500ms and 30s). Each re-trip doubles the cooldown; the
	// actual quarantine is jittered in [cooldown/2, cooldown].
	BackoffBase time.Duration
	BackoffMax  time.Duration

	// Seed seeds the jitter source (deterministic tests).
	Seed int64
	// Registry receives the daemon's metrics (a fresh one if nil).
	Registry *telemetry.Registry
	// Now is the clock (time.Now if nil; tests inject a fake).
	Now func() time.Time
	// Logger receives structured logs (silent if nil), tagged as the
	// caller tags it (a binary's logging.Parse adds its component). The
	// daemon tags reconfiguration-scoped records with reconfig_id.
	Logger *slog.Logger
	// Tracer is the flight recorder every reconfiguration, audit and
	// breaker transition is journaled into (nil disables tracing; the
	// /debug endpoints then serve empty results).
	Tracer *trace.Tracer
	// Chaos, when set, exposes the fault injector on the daemon's HTTP
	// surface (/debug/chaos, /debug/chaos/cycle) and injection state on
	// /status, and arms ChaosCycle. The injector must wrap the same
	// fabric's devices the daemon supervises.
	Chaos *chaos.Injector
	// FlowMonitor, when set, simulates the flow-level cost of every
	// drained reconfiguration and repair cycle against the committed
	// allocation, publishing iris_flowsim_* metrics and /status's
	// flow_impact. Register it on the same Registry as the daemon's
	// metrics so one scrape carries both.
	FlowMonitor *flowsim.Monitor
	// History, when set, receives one record per committed convergence,
	// repair pass and chaos cycle — the reconfiguration history lake served
	// on /api/history.
	History *history.Lake
	// Robust, when set, switches the converge loop from per-shift deltas
	// to METTEOR-style robust planning: one envelope allocation covers a
	// window of matrices and reconfiguration is skipped while the live
	// demand stays inside it (see robust.Policy). Zero fields select the
	// defaults.
	Robust *robust.Config
}

// Daemon is the regional control loop. Construct with New, drive with Run
// (or Step/ProbeOnce directly in tests), observe via Handler/Status.
type Daemon struct {
	cfg    Config
	ctl    *control.Controller
	feed   traffic.Source
	reg    *telemetry.Registry
	now    func() time.Time
	log    *slog.Logger
	tracer *trace.Tracer

	// fallbackID hands out reconfig IDs when no tracer is configured (a
	// live tracer's ID space is used instead, so span and trace IDs never
	// collide between the daemon and other instrumented subsystems).
	fallbackID atomic.Uint64

	// policy decides which allocation each shift commits: robust when
	// Config.Robust arms the envelope rule, else a core.PerShift. Only the
	// converge path calls Shift, under loop; Adopt runs under mu with the
	// commit it belongs to.
	policy core.Policy
	robust *robust.Policy

	// loop is held for its whole run by everything that sends the region's
	// devices RPCs: Step (a commit or a repair), ProbeOnce, a chaos
	// cycle's replan and Audit. So the region has one writer, and a probe
	// never fetches a state a write is moving.
	loop sync.Mutex

	// mu guards the control-loop state below. The fabric pointed to by fab
	// is never mutated while installed: changes are compiled on clones,
	// and a clone is copy-on-write — it shares the installed fabric's
	// pools, tuning tables and circuits, copies a pool or table before
	// its first write and never writes a circuit (fabric.Fabric.Clone,
	// whose only write to the installed fabric is an owner token no
	// reader looks at). So holding mu only for pointer reads/swaps keeps
	// /status responsive during slow reconfigurations.
	mu      sync.Mutex
	fab     *fabric.Fabric
	lkg     core.Allocation // last-known-good allocation
	haveLKG bool
	// lastMatrix is the demand the region last settled on.
	lastMatrix  *traffic.Matrix
	pending     *traffic.Matrix // shift taken from the feed, not yet applied
	needRepair  bool            // devices may have diverged from intent
	steps       int
	lastErr     string
	lastAuditAt time.Time
	lastAuditOK bool
	lastGoodAt  time.Time // last successful convergence
	// lastReconfigID is the trace ID of the last reconfiguration whose
	// change the devices accepted — the handle for
	// /debug/events?reconfig=<id>.
	lastReconfigID uint64
	// read is the committed state as the topology API reads it, and rows
	// is lkg as /status lists it: each is built by the first read of it
	// after a change (topoSnapshot, allocRowsLocked), shared by every
	// read until the next, and dropped by settleLocked.
	read *topoapi.Snapshot
	rows []PairAllocation

	// names is the controller's devices in its sorted order, fixed in
	// New: the order of /status's device rows and of a probe round.
	names []string

	// hmu guards per-device breaker state and the jitter source.
	hmu    sync.Mutex
	health map[string]*deviceHealth
	rng    *rand.Rand

	m metricsSet
}

type metricsSet struct {
	steps             *telemetry.Counter
	skips             *telemetry.Counter
	reconfigs         *telemetry.Counter
	reconfigFailures  *telemetry.Counter
	reconfigOps       *telemetry.Counter
	reconfigSeconds   *telemetry.Histogram
	phaseSeconds      *telemetry.HistogramVec
	allocFailures     *telemetry.Counter
	allocIncremental  *telemetry.Counter
	allocFallback     *telemetry.Counter
	allocPairs        *telemetry.Histogram
	coalesced         *telemetry.Counter
	audits            *telemetry.Counter
	auditFailures     *telemetry.Counter
	reconciles        *telemetry.Counter
	reconcileFailures *telemetry.Counter
	probes            *telemetry.Counter
	probeFailures     *telemetry.CounterVec
	breakerTrips      *telemetry.CounterVec
	breakerState      *telemetry.GaugeVec
	staleness         *telemetry.Gauge
	circuits          *telemetry.Gauge
	planStageSeconds  *telemetry.HistogramVec
	// Chaos-cycle series, registered only when an injector is armed so
	// chaos-less scrapes stay clean.
	chaosCycles     *telemetry.Counter
	chaosCycleFails *telemetry.Counter
	chaosDetect     *telemetry.Histogram
	chaosRepair     *telemetry.Histogram
	// Robust-mode series, registered only when the envelope rule is armed so
	// non-robust scrapes stay clean.
	robustInEnv    *telemetry.Counter
	robustEscapes  *telemetry.Counter
	robustHeadroom *telemetry.Gauge
	robustOverprov *telemetry.Gauge
	// Traced-change series, registered by the first (observeTick).
	tickSeconds  *telemetry.HistogramVec
	tickCoverage *telemetry.Gauge
}

// The control loop's cadences when Config leaves them zero, and what
// DefaultRegionConfig shows as the -interval and -probe-interval defaults.
const (
	defaultInterval      = 2 * time.Second
	defaultProbeInterval = time.Second
)

// latencyBuckets cover sub-millisecond emulated phases up to multi-second
// hardware settling.
var latencyBuckets = []float64{.0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

// tickBuckets cover a layer's self time in one change, from a few
// microseconds (a sparse diff) to the seconds of hardware settling.
var tickBuckets = []float64{1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

// New validates the configuration and prepares a daemon. The first
// convergence happens on the first Step (or Run tick).
func New(cfg Config) (*Daemon, error) {
	if cfg.Fab == nil || cfg.Controller == nil || cfg.Feed == nil {
		return nil, fmt.Errorf("daemon: Fab, Controller and Feed are required")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = defaultInterval
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 1
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = defaultProbeInterval
	}
	if cfg.FailureThreshold <= 0 {
		cfg.FailureThreshold = 3
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 500 * time.Millisecond
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = 30 * time.Second
	}
	d := &Daemon{
		cfg:    cfg,
		ctl:    cfg.Controller,
		feed:   cfg.Feed,
		reg:    cfg.Registry,
		now:    cfg.Now,
		log:    cfg.Logger,
		tracer: cfg.Tracer,
		fab:    cfg.Fab,
	}
	if d.reg == nil {
		d.reg = telemetry.NewRegistry()
	}
	if d.now == nil {
		d.now = time.Now
	}
	if d.log == nil {
		d.log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	d.rng = rand.New(rand.NewSource(cfg.Seed))
	d.health = make(map[string]*deviceHealth)
	d.policy = &core.PerShift{}
	if cfg.Robust != nil {
		d.robust = robust.NewPolicy(*cfg.Robust)
		d.policy = d.robust
	}
	d.initMetrics()
	d.names = d.ctl.Devices()
	for _, name := range d.names {
		d.health[name] = &deviceHealth{}
		d.m.breakerState.With(name).Set(0)
	}
	// The bring-up plan's Algorithm-1 stage timings are the region's
	// planning cost; exposing them beside the reconfiguration phases lets
	// one scrape correlate plan and control-plane latency.
	if pl := cfg.Fab.Deployment().Plan; pl != nil {
		for _, st := range pl.Stages {
			d.m.planStageSeconds.With(st.Stage).Observe(st.Duration.Seconds())
		}
	}
	return d, nil
}

func (d *Daemon) initMetrics() {
	r := d.reg
	d.m.steps = r.Counter("iris_daemon_steps_total", "Control-loop iterations.")
	d.m.skips = r.Counter("iris_daemon_skipped_steps_total", "Iterations skipped because a breaker was open (region held on last-known-good allocation).")
	d.m.reconfigs = r.Counter("iris_reconfig_total", "Successful drained reconfigurations.")
	d.m.reconfigFailures = r.Counter("iris_reconfig_failures_total", "Reconfigurations aborted by a device failure.")
	d.m.reconfigOps = r.Counter("iris_reconfig_ops_total", "Device operations executed by successful reconfigurations.")
	d.m.reconfigSeconds = r.Histogram("iris_reconfig_seconds", "End-to-end reconfiguration latency.", latencyBuckets)
	d.m.phaseSeconds = r.HistogramVec("iris_reconfig_phase_seconds", "Per-phase reconfiguration latency (drain, switch, amps, retune, fill, undrain).", "phase", latencyBuckets)
	d.m.allocFailures = r.Counter("iris_allocation_failures_total", "Traffic matrices rejected as unallocatable.")
	d.m.allocIncremental = r.Counter("iris_alloc_incremental_total", "Convergences solved by the incremental delta allocator.")
	d.m.allocFallback = r.Counter("iris_alloc_fallback_total", "Convergences solved from scratch (first solve, deployment swap, or delta-cascade fallback).")
	d.m.allocPairs = r.Histogram("iris_alloc_pairs_resolved", "DC pairs whose circuits were recomputed per convergence.", []float64{1, 2, 5, 10, 20, 50, 100, 250, 500})
	d.m.coalesced = r.Counter("iris_daemon_coalesced_shifts_total", "Intermediate traffic shifts skipped by batched convergence (MaxBatch).")
	d.m.audits = r.Counter("iris_audit_total", "Device-state audits executed: after a change or repair, and each probe round.")
	d.m.auditFailures = r.Counter("iris_audit_failures_total", "Audits, probe rounds included, that found devices diverged from intent.")
	d.m.reconciles = r.Counter("iris_reconcile_total", "Reconciliation repairs executed after partial failures.")
	d.m.reconcileFailures = r.Counter("iris_reconcile_failures_total", "Reconciliation repairs that themselves failed.")
	d.m.probes = r.Counter("iris_probe_total", "Device health probes sent.")
	d.m.probeFailures = r.CounterVec("iris_probe_failures_total", "Failed device health probes.", "device")
	d.m.breakerTrips = r.CounterVec("iris_breaker_trips_total", "Circuit-breaker trips.", "device")
	d.m.breakerState = r.GaugeVec("iris_breaker_state", "Breaker state per device: 0 closed, 1 half-open, 2 open.", "device")
	d.m.staleness = r.Gauge("iris_allocation_staleness_seconds", "Age of the last successful convergence.")
	d.m.circuits = r.Gauge("iris_circuits_active", "Active circuits (full + residual).")
	d.m.planStageSeconds = r.HistogramVec("iris_plan_stage_seconds", "Per-stage planner latency (route, amps, cutthrough, provision, total) from Algorithm 1.", "stage", latencyBuckets)
	if d.cfg.Chaos != nil {
		d.m.chaosCycles = r.Counter("iris_chaos_cycles_total", "Completed inject-detect-restore-heal-replan cycles.")
		d.m.chaosCycleFails = r.Counter("iris_chaos_cycle_failures_total", "Chaos cycles that failed or timed out.")
		d.m.chaosDetect = r.Histogram("iris_chaos_detect_seconds", "Injection-to-detection latency (fault injected until the control plane reports unhealthy).", cycleBuckets)
		d.m.chaosRepair = r.Histogram("iris_chaos_repair_seconds", "Restore-to-repair latency (fault restored until the control plane reconverges).", cycleBuckets)
	}
	if d.cfg.Robust != nil {
		d.m.robustInEnv = r.Counter("iris_robust_in_envelope_total", "Traffic shifts absorbed by the committed envelope (reconfiguration skipped).")
		d.m.robustEscapes = r.Counter("iris_robust_escapes_total", "Traffic shifts that escaped the committed envelope and forced a re-plan.")
		d.m.robustHeadroom = r.Gauge("iris_robust_headroom_ratio", "Headroom factor the committed envelope was allocated at.")
		d.m.robustOverprov = r.Gauge("iris_robust_overprovision_ratio", "Provisioned wavelengths over the envelope window's mean demand.")
	}
}

// Registry returns the daemon's metrics registry.
func (d *Daemon) Registry() *telemetry.Registry { return d.reg }

// Run drives the control loop until ctx is cancelled or the traffic feed
// is exhausted. Cancellation is graceful: an in-flight reconfiguration
// finishes its drained sequence before Run returns, so devices are never
// abandoned mid-phase.
func (d *Daemon) Run(ctx context.Context) error {
	stepTick := time.NewTicker(d.cfg.Interval)
	defer stepTick.Stop()
	probeTick := time.NewTicker(d.cfg.ProbeInterval)
	defer probeTick.Stop()

	// Converge on the feed's first matrix immediately.
	d.ProbeOnce()
	if d.Step() {
		return nil
	}
	for {
		select {
		case <-ctx.Done():
			d.log.Info("shutdown: control loop drained")
			return nil
		case <-stepTick.C:
			if d.Step() {
				d.log.Info("traffic feed exhausted; exiting")
				return nil
			}
		case <-probeTick.C:
			d.ProbeOnce()
		}
	}
}

// Step runs one control-loop iteration: repair if needed, take the next
// traffic shift, converge on it. It returns true when the feed is
// exhausted and the loop should exit. Run calls it on the interval; tests
// call it directly for determinism.
func (d *Daemon) Step() (done bool) {
	d.loop.Lock()
	defer d.loop.Unlock()
	d.m.steps.Inc()
	d.mu.Lock()
	d.steps++
	d.mu.Unlock()
	defer d.updateStaleness()

	if !d.Healthy() {
		d.m.skips.Inc()
		d.setErr("degraded: breaker open, holding last-known-good allocation")
		return false
	}
	if d.repairNeeded() {
		if err := d.repair(); err != nil {
			d.setErr(err.Error())
			return false
		}
	}

	d.mu.Lock()
	pending := d.pending
	d.mu.Unlock()
	if pending == nil {
		m, ok := d.feed.Next()
		if !ok {
			return true
		}
		pending = m
	}
	// Coalesce a burst: fold up to MaxBatch queued shifts into one
	// convergence on the newest matrix. The incremental allocator sees the
	// merged delta, so intermediates cost nothing but this drain.
	for i := 1; i < d.cfg.MaxBatch; i++ {
		m, ok := d.feed.Next()
		if !ok {
			break
		}
		d.m.coalesced.Inc()
		pending = m
	}
	d.mu.Lock()
	d.pending = pending
	d.mu.Unlock()
	if err := d.converge(pending); err != nil {
		d.setErr(err.Error())
		d.log.Warn("step failed", "err", err)
		return false
	}
	d.setErr("")
	return false
}

// nextTraceID allocates a reconfiguration (or repair) trace ID. With a
// live tracer the tracer's ID space is used so trace IDs never collide
// with other instrumented subsystems sharing the recorder; without one, a
// private counter keeps /status's reconfig IDs meaningful.
func (d *Daemon) nextTraceID() uint64 {
	if id := d.tracer.NextID(); id != 0 {
		return id
	}
	return d.fallbackID.Add(1)
}

// converge asks the policy which allocation the matrix commits and, when
// it differs from the committed one, executes the change that moves the
// devices there. An unchanged outcome only settles: per shift, a delta
// that left the circuits alone; in robust mode, a shift the committed
// envelope absorbed or a re-plan onto the same circuits.
func (d *Daemon) converge(tm *traffic.Matrix) error {
	d.mu.Lock()
	dep, step := d.fab.Deployment(), d.steps
	d.mu.Unlock()

	out, err := d.policy.Shift(dep, tm, step)
	trig := d.noteEnvelope()
	if err != nil {
		// The demand is infeasible for the planned region: drop the shift
		// and keep serving the last-known-good allocation.
		d.m.allocFailures.Inc()
		d.dropPending()
		return err
	}
	if s := out.Stats; s != nil {
		if s.Incremental {
			d.m.allocIncremental.Inc()
		} else {
			d.m.allocFallback.Inc()
		}
		d.m.allocPairs.Observe(float64(s.PairsResolved))
	}
	if !out.Changed {
		d.mu.Lock()
		d.settleLocked(tm)
		d.mu.Unlock()
		return nil
	}
	return d.commitChange(tm, out, trig)
}

// commitChange executes the drained reconfiguration that moves the
// devices onto the outcome's allocation, transactionally against a fabric
// clone, and records it in the history lake under trig. Every change gets
// a reconfig ID: the root span of a trace threaded through the
// controller's phases, the closing audit of the states the change's
// devices answered its writes with (the probe rounds fetch and compare
// every device), and any breaker penalty the failure attribution
// produces. On success the policy adopts the outcome in the critical
// section that swaps the fabric (settleLocked); when the devices reject
// the change, the outcome's Undo rolls the policy's books back to the
// last-known-good intent the repair pass restores.
func (d *Daemon) commitChange(tm *traffic.Matrix, out core.Outcome, trig history.Trigger) error {
	d.mu.Lock()
	fab, haveLKG := d.fab, d.haveLKG
	last := d.lastMatrix
	d.mu.Unlock()
	dep := fab.Deployment()

	// Bracket the reconfiguration for the history lake: pre-state now, the
	// record once the commit (and its closing audit) has finished so its
	// span capture includes the whole trace.
	recordAt := d.now()
	var preHealth history.Health
	if d.cfg.History != nil {
		preHealth = d.healthBrief()
	}

	id := d.nextTraceID()
	log := d.log.With("reconfig_id", id)
	// The trace starts with the shift, whose layers ran before the change
	// had an ID.
	root := d.tracer.StartAt(id, "reconfig", out.Timing.Start)
	ctx := trace.ContextWith(context.Background(), root)
	shiftSpans(root, out.Timing)

	clsp := root.Child("fabric.clone")
	clone := fab.Clone()
	clsp.Finish()
	csp := root.Child("compile")
	csp.SetAttr(out.Attr)
	ch, err := clone.Compile(out.Pairs)
	if err != nil {
		out.Undo.Rollback()
		csp.Fail(err)
		csp.Finish()
		root.Fail(err)
		root.Finish()
		d.dropPending()
		return fmt.Errorf("compile: %w", err)
	}
	csp.Finish()

	rsp := root.Child("control.reconfigure")
	rep, err := d.ctl.Reconfigure(trace.ContextWith(ctx, rsp), ch)
	rsp.Fail(err)
	rsp.Finish()
	if err != nil {
		// The devices may be partially reconfigured; keep the old fabric
		// as intent (the clone is discarded, the delta rolled back),
		// penalise the culprit, and reconcile once the region is healthy
		// again.
		out.Undo.Rollback()
		d.m.reconfigFailures.Inc()
		d.penalizeIn(id, err)
		d.mu.Lock()
		d.needRepair = true
		d.mu.Unlock()
		root.Fail(err)
		root.Finish()
		log.Error("reconfiguration aborted", "err", err)
		return fmt.Errorf("reconfigure: %w", err)
	}
	ops := 0
	for _, p := range rep.Phases {
		d.m.phaseSeconds.With(p.Name).Observe(p.Duration.Seconds())
		ops += p.Ops
	}
	d.m.reconfigSeconds.Observe(rep.Total.Seconds())
	d.m.reconfigOps.Add(float64(ops))
	d.m.reconfigs.Inc()

	d.mu.Lock()
	d.fab = clone
	d.lkg = out.Alloc
	d.haveLKG = true
	d.lastReconfigID = id
	d.settleLocked(tm)
	d.mu.Unlock()
	d.m.circuits.Set(float64(clone.CircuitCount()))
	log.Info("converged", "ops", ops, "total", rep.Total.Round(time.Microsecond))
	// The outcome's one pair diff, which the clone compiled, serves the
	// change's other readers: the flow monitor takes its fiber moves, the
	// history record the pair deltas.
	var impact func(*flowsim.Monitor) (flowsim.Impact, error)
	if haveLKG {
		impact = func(m *flowsim.Monitor) (flowsim.Impact, error) {
			return m.ObserveReconfig(id, out.Alloc, dep.Region.Lambda, core.Moves(out.Pairs), rep.Total.Seconds())
		}
	}
	// The clone's Compile published its intent, patching the devices the
	// change touched: the closing audit compares it with their replies.
	err = d.closeWrite(ctx, id, clone.Expected(), ch, rep, impact)
	hsp := root.Child("history.record")
	rec, keep := d.historyRecord(trig, id, recordAt, preHealth, last, tm, out.Pairs, dep, err)
	hsp.Finish()
	root.Fail(err)
	root.Finish()
	// The record captures the trace once its root has finished, so the
	// lake's append is the one step outside it.
	if keep || d.tracer != nil {
		spans := d.tracer.Events(trace.Filter{TraceID: id})
		d.observeTick(spans)
		if keep {
			d.appendHistory(rec, spans)
		}
	}
	return err
}

// shiftSpans journals the layers of the shift a change commits under its
// root, from the marks the policy took: traffic.diff, core.delta and
// core.snapshot, each a span that ends where the next begins. With a nil
// root it allocates nothing.
func shiftSpans(root *trace.Span, at core.Timing) {
	from := at.Start
	for _, l := range [...]struct {
		name string
		end  time.Time
	}{{"traffic.diff", at.Diffed}, {"core.delta", at.Solved}, {"core.snapshot", at.Snapshotted}} {
		if !l.end.IsZero() {
			root.Child(l.name).FinishAs(from, l.end.Sub(from))
			from = l.end
		}
	}
}

// observeTick exports a traced change's layers from its spans: per span
// name, the self times summed over the trace (iris_tick_seconds{layer};
// the root's, layer "reconfig", is the daemon's own time between its
// layers), and the share of the root's time its children cover
// (iris_tick_trace_coverage). The first traced change registers both, so
// an untraced daemon's scrape carries neither.
func (d *Daemon) observeTick(spans []trace.Event) {
	root := slices.IndexFunc(spans, func(ev trace.Event) bool { return ev.ParentID == 0 && ev.Name == "reconfig" })
	if root < 0 {
		return
	}
	if d.m.tickSeconds == nil {
		d.m.tickSeconds = d.reg.HistogramVec("iris_tick_seconds", "Self time of each layer of a traced reconfiguration, by span name (reconfig: the daemon's own).", "layer", tickBuckets)
		d.m.tickCoverage = d.reg.Gauge("iris_tick_trace_coverage", "Share of the last traced reconfiguration's time its layer spans cover.")
	}
	self := trace.SelfTimes(spans)
	sums := make(map[string]time.Duration)
	for i, ev := range spans {
		sums[ev.Name] += self[i]
	}
	for name, t := range sums {
		d.m.tickSeconds.With(name).Observe(t.Seconds())
	}
	if dur := spans[root].Duration; dur > 0 {
		d.m.tickCoverage.Set(1 - float64(self[root])/float64(dur))
	}
}

// repair runs the anti-entropy pass: fetch every device's state, compute
// the change that restores the fabric's intent, execute it and close it
// like a commit. The pass gets its own trace ("repair" root) so a
// reconciliation's fetches and phases are journaled like a convergence.
func (d *Daemon) repair() error {
	d.mu.Lock()
	fab, last := d.fab, d.lastMatrix
	d.mu.Unlock()

	recordAt := d.now()
	var preHealth history.Health
	if d.cfg.History != nil {
		preHealth = d.healthBrief()
	}
	id := d.nextTraceID()
	root := d.tracer.Start(id, "repair")
	ctx := trace.ContextWith(context.Background(), root)
	err := d.repairIn(ctx, id, fab)
	root.Fail(err)
	root.Finish()
	// A repair restores intent rather than changing it, so the record's
	// allocation diff is empty; what it documents is the health transition
	// and the reconciliation's span tree.
	d.recordHistory(history.TriggerRepair, id, recordAt, preHealth, last, last, nil, fab.Deployment(), err)
	return err
}

// repairIn is the repair pass of fab: one fetch and compare of every
// device against fab's intent, the change that closes the difference,
// and closeWrite. The fetch judged every device the change leaves alone,
// and loop keeps other writers out, so an empty change passes on it.
// Only a passing repair clears needRepair.
func (d *Daemon) repairIn(ctx context.Context, id uint64, fab *fabric.Fabric) error {
	exp := fab.Expected()
	fsp := trace.FromContext(ctx).Child("fetch-state")
	ch, err := d.ctl.Repair(trace.ContextWith(ctx, fsp), exp)
	fsp.Fail(err)
	fsp.Finish()
	if err != nil {
		d.penalizeIn(id, err)
		return fmt.Errorf("repair: %w", err)
	}
	var rep control.Report
	var impact func(*flowsim.Monitor) (flowsim.Impact, error)
	if !fabric.EmptyChange(ch) {
		d.m.reconciles.Inc()
		if rep, err = d.ctl.Reconfigure(ctx, ch); err != nil {
			d.m.reconcileFailures.Inc()
			d.penalizeIn(id, err)
			return fmt.Errorf("repair reconfigure: %w", err)
		}
		d.log.Info("repair: reconciled devices to last-known-good intent", "reconfig_id", id)
		d.mu.Lock()
		lkg, haveLKG := d.lkg, d.haveLKG
		d.mu.Unlock()
		if haveLKG {
			// Each pair dips by the share of its circuits' slots the
			// change darkened: switched, drained or retuned.
			impact = func(m *flowsim.Monitor) (flowsim.Impact, error) {
				return m.ObserveRepair(id, lkg, fab.Deployment().Region.Lambda, fab.Darkened(ch), rep.Total.Seconds())
			}
		}
	}
	if err := d.closeWrite(ctx, id, exp, ch, rep, impact); err != nil {
		return err
	}
	d.mu.Lock()
	d.needRepair = false
	d.mu.Unlock()
	return nil
}

// closeWrite ends every write the devices accepted, a commit's and a
// repair's, under ctx's span: the flow monitor replays its cost (impact,
// ObserveReconfig or ObserveRepair, if any), then the "audit" span
// compares each device the change named with exp from the state its last
// write answered with, sending nothing. A mismatch schedules a repair; a
// *DeviceError counts against its device's breaker.
func (d *Daemon) closeWrite(ctx context.Context, id uint64, exp control.Expected, ch control.Change, rep control.Report,
	impact func(*flowsim.Monitor) (flowsim.Impact, error)) error {
	root := trace.FromContext(ctx)
	if d.cfg.FlowMonitor != nil && impact != nil {
		// The simulation journals under the write's trace, so
		// /debug/events?reconfig=<id> shows the drain and its flow impact
		// side by side.
		fsp := root.Child("flowsim-impact")
		imp, err := impact(d.cfg.FlowMonitor)
		if err != nil {
			fsp.Fail(err)
			d.log.Warn("flow-impact simulation failed", "reconfig_id", id, "err", err)
		} else {
			fsp.SetAttr(fmt.Sprintf("pipes=%d flows=%d p99=%.4f stranded_bytes=%.0f",
				imp.Pipes, imp.Flows, imp.P99, imp.BytesStranded))
		}
		fsp.Finish()
	}
	d.m.audits.Inc()
	sp := root.Child("audit")
	err := auditReplies(exp, ch.Devices(), rep.States)
	sp.Fail(err)
	sp.Finish()
	if err != nil {
		d.diverged()
		d.penalizeIn(id, err)
		return fmt.Errorf("audit: %w", err)
	}
	d.mu.Lock()
	d.lastAuditAt = d.now()
	d.lastAuditOK = true
	d.mu.Unlock()
	return nil
}

// auditReplies is the audit that closes a change: every device in devs
// (the change's, sorted) answered its last write with the state it left
// (states, Report.States), and exp.Check compares it, stopping at the
// first that differs. A device whose reply carried no state is a
// *DeviceError against it, as a malformed one is.
func auditReplies(exp control.Expected, devs []string, states map[string]map[string]any) error {
	for _, dev := range devs {
		st := states[dev]
		if st == nil {
			return &control.DeviceError{Device: dev, Err: errors.New("its last write answered with no state")}
		}
		if err := exp.Check(dev, st); err != nil {
			return err
		}
	}
	return nil
}

// diverged records an audit that failed, a closing one or a probe
// round's: the devices may be off intent, so a repair is due, and the
// audit's result stays a failure until a repair's audit passes. known
// says a repair was due already.
func (d *Daemon) diverged() (known bool) {
	d.mu.Lock()
	known = d.needRepair
	d.lastAuditAt = d.now()
	d.lastAuditOK = false
	d.needRepair = true
	d.mu.Unlock()
	d.m.auditFailures.Inc()
	return known
}

// settleLocked records that the region serves tm: the policy adopts the
// shift's outcome, the pending shift is taken, the allocation is fresh,
// and the read state is dropped, so the next read sees tm, the adopted
// envelope and whatever else the caller changed under the same lock (lkg,
// the fabric). Every change to the committed state ends here. Callers
// hold d.mu.
func (d *Daemon) settleLocked(tm *traffic.Matrix) {
	d.policy.Adopt()
	d.lastMatrix = tm
	d.pending = nil
	d.lastGoodAt = d.now()
	d.read, d.rows = nil, nil
}

func (d *Daemon) dropPending() {
	d.mu.Lock()
	d.pending = nil
	d.mu.Unlock()
}

func (d *Daemon) setErr(msg string) {
	d.mu.Lock()
	d.lastErr = msg
	d.mu.Unlock()
}

func (d *Daemon) repairNeeded() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.needRepair
}

func (d *Daemon) updateStaleness() {
	d.mu.Lock()
	at, have := d.lastGoodAt, d.haveLKG
	d.mu.Unlock()
	if have {
		d.m.staleness.Set(d.now().Sub(at).Seconds())
	}
}

// Audit runs an immediate audit of every device against the current
// intent.
func (d *Daemon) Audit() error {
	d.loop.Lock()
	defer d.loop.Unlock()
	d.mu.Lock()
	fab := d.fab
	d.mu.Unlock()
	return d.ctl.Audit(fab.Expected())
}

// ConvergedNow reports whether the region is healthy, repaired and
// serving the latest allocation — the settle condition of a chaos cycle.
func (d *Daemon) ConvergedNow() bool {
	return d.brief().converged()
}

// penalizeIn attributes an error to the device that caused it and
// advances that device's breaker, journaling any trip under the given
// trace (the reconfiguration or repair that surfaced the failure).
func (d *Daemon) penalizeIn(traceID uint64, err error) {
	var de *control.DeviceError
	if !errors.As(err, &de) {
		return
	}
	d.hmu.Lock()
	defer d.hmu.Unlock()
	h, ok := d.health[de.Device]
	if !ok {
		return
	}
	d.recordFailureLocked(traceID, de.Device, h, de)
}
