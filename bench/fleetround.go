package main

import (
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"iris/internal/daemon"
	"iris/internal/fleet"
)

// Fleet shape: 8 regions of 10 DCs on a worker pool sized for this box.
const (
	fleetRegions = 8
	fleetDCs     = 10
)

func fleetWorkers() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

// newFleet builds the fleet and runs its warm-up rounds; both are the
// workload's set-up. The fleet can only be fed by traffic.Evolver, whose
// bounded mode drifts downward, so regions run its stationary mode:
// ShiftBound 0, a hot and a cold pair swapping volumes every step.
func newFleet(seed int64, warm int) (*fleet.Fleet, error) {
	rc := daemon.DefaultRegionConfig()
	rc.Toy = false
	rc.DCs = fleetDCs
	rc.DCCapacity, rc.Lambda = regionCapacity, regionLambda
	rc.OSSDelay = 0
	rc.ShiftBound = 0
	rc.ProbeInterval = time.Nanosecond
	rc.TraceEvents = 0
	f, err := fleet.New(fleet.Config{
		Regions: fleetRegions, Seed: seed, Workers: fleetWorkers(), Region: rc,
	})
	if err != nil {
		return nil, err
	}
	for i := 0; i < warm; i++ {
		f.Round()
		f.Quiesce()
	}
	return f, nil
}

// round is one fleet-round operation: dispatch every region's probe and
// step onto the worker pool and wait for the slowest.
func round(f *fleet.Fleet, rec *recorder, chk *checks) time.Duration {
	rec.nextOp()
	root := rec.begin("round", -1)
	t0 := now()
	s := rec.begin("fleet.dispatch", root)
	f.Round()
	rec.end(s)
	s = rec.begin("fleet.quiesce", root)
	f.Quiesce()
	rec.end(s)
	el := since(t0)
	rec.end(root)
	for i := 0; i < f.Regions(); i++ {
		id := fleet.RegionID(i)
		r, _ := f.Region(id)
		chk.expect(r.ConvergedNow(), "region %s not converged after its step", id)
	}
	return el
}

func roundLoop(f *fleet.Fleet, rec *recorder, b budget, chk *checks) (ms []float64, busy time.Duration) {
	for start := time.Now(); !b.done(start, len(ms)); {
		el := round(f, rec, chk)
		busy += el
		ms = append(ms, msOf(el))
	}
	return ms, busy
}

// serialPass does a round's work with no parallelism at all — every
// region probed and stepped in turn — then one fleet-wide metrics scrape
// and status report. It returns the time the region steps took together.
func serialPass(f *fleet.Fleet, h http.Handler, rec *recorder, chk *checks) time.Duration {
	rec.nextOp()
	root := rec.begin("serial", -1)
	defer rec.end(root)
	var sum time.Duration
	for i := 0; i < f.Regions(); i++ {
		r, _ := f.Region(fleet.RegionID(i))
		s := rec.begin("fleet.serial_step", root)
		p := rec.begin("control.probe", s)
		r.ProbeOnce()
		rec.end(p)
		p = rec.begin("daemon.step", s)
		r.Step()
		rec.end(p)
		sum += rec.end(s)
	}

	s := rec.begin("fleet.metrics_merge", root)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	rec.end(s)
	chk.expect(w.Code == http.StatusOK && w.Body.Len() > 0, "fleet /metrics: status %d, %d bytes", w.Code, w.Body.Len())

	s = rec.begin("fleet.status", root)
	st := f.Status()
	rec.end(s)
	chk.expect(st.Converged == st.Regions, "fleet status: %d of %d regions converged", st.Converged, st.Regions)
	return sum
}

// runFleetRound is fleet-round: the multi-region unit of work, where one
// region's tick is one of many parallel parts.
func runFleetRound(cfg runConfig) (*result, error) {
	res := newResult()
	if cfg.rec == nil {
		f, setup, err := medianSetup(cfg.setups,
			func() (*fleet.Fleet, error) { return newFleet(cfg.seed, cfg.warm) }, (*fleet.Fleet).Close)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		res.set("setup_s", setup)
		ms, busy := roundLoop(f, nil, cfg.budget, &res.checks)
		res.opStats("round", ms, busy)
		res.note("%.1f region steps/s", float64(len(ms)*fleetRegions)/busy.Seconds())
		return res, nil
	}

	// A third of the budget each: untraced rounds, traced rounds, and
	// serial passes over the same regions.
	f, err := newFleet(cfg.seed, cfg.warm)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	third := cfg.budget.part(1, 3)
	untraced, _ := roundLoop(f, nil, third, &res.checks)
	rec := cfg.rec
	ms, _ := roundLoop(f, rec, third, &res.checks)
	h := f.Handler()
	var serialMS []float64
	for start := time.Now(); !third.done(start, len(serialMS)); {
		serialMS = append(serialMS, msOf(serialPass(f, h, rec, &res.checks)))
	}

	us := func(name string) float64 { return median(spanUS(rec.spans, name)) }
	res.set("fleet.dispatch_us", us("fleet.dispatch"))
	res.set("fleet.quiesce_ms", us("fleet.quiesce")/1e3)
	res.set("fleet.serial_step_ms", us("fleet.serial_step")/1e3)
	res.set("fleet.parallel_efficiency", median(serialMS)/(median(ms)*float64(fleetWorkers())))
	res.set("fleet.metrics_merge_ms", us("fleet.metrics_merge")/1e3)
	res.set("fleet.status_us", us("fleet.status"))
	res.set("control.probe_ms", us("control.probe")/1e3)
	res.set("trace.overhead_ratio", median(ms)/median(untraced))
	res.note("round ms: untraced %s; traced %s", summarize(untraced), summarize(ms))
	res.note("serial pass over %d regions ms: %s", fleetRegions, summarize(serialMS))
	return res, nil
}
