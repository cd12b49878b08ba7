package daemon

import (
	"context"
	"errors"
	"fmt"
	"time"

	"iris/internal/chaos"
	"iris/internal/core"
	"iris/internal/history"
	"iris/internal/trace"
)

// CycleOptions tunes one chaos cycle.
type CycleOptions struct {
	// Pump advances the region between condition checks: tests call
	// ProbeOnce/Step and advance a fake clock. Nil sleeps cyclePoll,
	// probing the region first when nothing else does (ChaosCycle).
	Pump func()
	// Timeout bounds each wait phase (default 30s).
	Timeout time.Duration
}

// cyclePoll paces the default pump.
const cyclePoll = 50 * time.Millisecond

// CycleResult reports one completed chaos cycle.
type CycleResult struct {
	// TraceID identifies the cycle's span tree and its history record:
	// chaos-cycle → inject, detect, restore, heal, replan (fetch-state,
	// reconfigure phases, audit), settle.
	TraceID uint64        `json:"trace_id"`
	Fault   chaos.Fault   `json:"fault"`
	Detect  time.Duration `json:"detect"`
	Repair  time.Duration `json:"repair"`
	Total   time.Duration `json:"total"`
}

// cycleBuckets cover driven test cycles (fake clocks, milliseconds) up to
// live cycles paced by probe intervals and breaker cooldowns.
var cycleBuckets = []float64{.0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10, 30}

// ChaosCycle drives the region through one full failure-recovery cycle:
// inject the scenario's faults, wait for the supervision to detect them
// (a breaker opens), restore the devices, wait for the breakers to close,
// run a repair pass, and wait for reconvergence. The default pump probes,
// and settling waits for convergence alone.
//
// The cycle is one trace under an ID from the daemon's reconfiguration
// ID space and one chaos-cycle history record, success or failure, whose
// diff runs from before the inject to after the settle. Detection and
// repair latencies land in the iris_chaos_* metrics. Cancelling ctx ends
// the cycle as a failure at its next wait; a fault still injected is
// restored first, and a repair pass already running finishes.
func (d *Daemon) ChaosCycle(ctx context.Context, sc chaos.Scenario, opt CycleOptions) (*CycleResult, error) {
	return d.chaosCycle(ctx, sc, opt, false)
}

// chaosCycle is ChaosCycle; running says the daemon's own loop steps and
// probes the region during the cycle (irisd's /debug/chaos/cycle). Then
// the default pump only sleeps, and settling also waits until a
// reconfiguration has committed after the inject, so the record's diff is
// never empty by accident of timing.
func (d *Daemon) chaosCycle(ctx context.Context, sc chaos.Scenario, opt CycleOptions, running bool) (*CycleResult, error) {
	in := d.cfg.Chaos
	if in == nil {
		return nil, errors.New("daemon: no chaos injector configured")
	}
	pump := opt.Pump
	if pump == nil {
		pump = func() {
			if !running {
				d.ProbeOnce()
			}
			time.Sleep(cyclePoll)
		}
	}
	timeout := opt.Timeout
	if timeout <= 0 {
		timeout = 30 * time.Second
	}

	id := d.nextTraceID()
	root := d.tracer.Start(id, "chaos-cycle")
	root.SetAttr(sc.Name)
	t0 := d.now()
	preHealth := d.healthBrief()
	d.mu.Lock()
	preAlloc, preDemand, startID := d.lkg, d.lastMatrix, d.lastReconfigID
	d.mu.Unlock()

	// finish closes the trace and appends the cycle's record once the root
	// span has landed in the flight recorder.
	finish := func(err error) {
		root.Fail(err)
		root.Finish()
		d.mu.Lock()
		postAlloc, postDemand, dep := d.lkg, d.lastMatrix, d.fab.Deployment()
		d.mu.Unlock()
		d.recordHistory(history.TriggerChaos, id, t0, preHealth, preDemand, postDemand,
			core.DiffAlloc(preAlloc, postAlloc), dep, err)
	}
	fail := func(err error) (*CycleResult, error) {
		d.m.chaosCycleFails.Inc()
		finish(err)
		return nil, err
	}
	wait := func(name string, cond func() bool) (time.Duration, error) {
		sp := root.Child(name)
		start := d.now()
		for !cond() {
			err := ctx.Err()
			if err != nil {
				err = fmt.Errorf("chaos: %s: %w", name, err)
			} else if d.now().Sub(start) > timeout {
				err = fmt.Errorf("chaos: %s timed out after %v", name, timeout)
			}
			if err != nil {
				sp.Fail(err)
				sp.Finish()
				return 0, err
			}
			pump()
		}
		sp.Finish()
		return d.now().Sub(start), nil
	}

	isp := root.Child("inject")
	f, err := in.Inject(sc)
	if err != nil {
		isp.Fail(err)
		isp.Finish()
		return fail(err)
	}
	isp.SetAttr(fmt.Sprintf("devices=%d", len(f.Devices)))
	isp.Finish()

	detect, err := wait("detect", func() bool { return !d.Healthy() })
	if err != nil {
		_ = in.Restore(f.ID)
		return fail(err)
	}
	d.m.chaosDetect.Observe(detect.Seconds())

	rsp := root.Child("restore")
	err = in.Restore(f.ID)
	rsp.Fail(err)
	rsp.Finish()
	if err != nil {
		return fail(err)
	}
	repairStart := d.now()

	if _, err := wait("heal", d.Healthy); err != nil {
		return fail(err)
	}

	// The repair pass holds loop, as Step does, and runs to its end even if
	// ctx is cancelled meanwhile: like Run, a cycle never abandons devices
	// mid-phase.
	psp := root.Child("replan")
	d.loop.Lock()
	d.mu.Lock()
	fab := d.fab
	d.mu.Unlock()
	err = d.repairIn(trace.ContextWith(context.WithoutCancel(ctx), psp), id, fab)
	d.loop.Unlock()
	psp.Fail(err)
	psp.Finish()
	if err != nil {
		return fail(fmt.Errorf("chaos: replan: %w", err))
	}

	settled := func() bool {
		b := d.brief()
		return b.converged() && (!running || b.lastReconfigID != startID)
	}
	if _, err := wait("settle", settled); err != nil {
		return fail(err)
	}
	repair := d.now().Sub(repairStart)
	d.m.chaosRepair.Observe(repair.Seconds())
	d.m.chaosCycles.Inc()
	finish(nil)
	return &CycleResult{
		TraceID: id,
		Fault:   f,
		Detect:  detect,
		Repair:  repair,
		Total:   d.now().Sub(t0),
	}, nil
}
