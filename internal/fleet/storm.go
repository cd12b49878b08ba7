package fleet

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"iris/internal/chaos"
)

// CycleOptions tunes one fleet-coordinated chaos cycle.
type CycleOptions struct {
	// Pump advances the pinned region between condition checks. Nil uses
	// the live pump: probe the region (the scheduler won't — the region
	// is busy for the cycle's whole duration) and sleep PollInterval.
	// Tests pass a pump that also advances a fake clock.
	Pump func()
	// PollInterval paces the default pump (default 50ms).
	PollInterval time.Duration
	// Timeout bounds each cycle phase (default 30s).
	Timeout time.Duration
}

// runChaosCycle pins region id busy and drives it through one full
// inject→detect→restore→heal→replan→settle cycle. While pinned, the
// scheduler skips the region — its siblings keep converging untouched —
// and the cycle's own pump advances the region instead. The cycle is
// journaled as a fleet-chaos span on the fleet tracer; the detailed
// chaos-cycle span tree lands on the region's own recorder.
//
// It fails fast if the region is unknown, has no chaos injector armed,
// or is already busy (a cycle or dispatch owns it).
func (f *Fleet) runChaosCycle(id string, sc chaos.Scenario, opt CycleOptions) (*chaos.CycleResult, error) {
	m := f.member(id)
	if m == nil {
		return nil, fmt.Errorf("fleet: unknown region %q", id)
	}
	if m.built.Injector == nil {
		return nil, fmt.Errorf("fleet: region %s has no chaos injector (build with Chaos: true)", id)
	}
	if !m.busy.CompareAndSwap(false, true) {
		return nil, fmt.Errorf("fleet: region %s is busy", id)
	}
	defer m.busy.Store(false)

	poll := opt.PollInterval
	if poll <= 0 {
		poll = 50 * time.Millisecond
	}
	pump := opt.Pump
	if pump == nil {
		pump = func() {
			m.r.ProbeOnce()
			time.Sleep(poll)
		}
	}

	sp := f.tracer.Start(f.tracer.NextID(), "fleet-chaos")
	sp.SetDevice(id)
	sp.SetAttr(sc.Name)
	f.log.Info("chaos cycle start", "region", id, "scenario", sc.Name)
	cc := chaos.CycleConfig{
		Scenario:     sc,
		CP:           m.r,
		Pump:         pump,
		PollInterval: poll,
		Timeout:      opt.Timeout,
		History:      m.r.History(),
	}
	if m.built.Daemon != nil {
		cc.Books = m.built.Daemon.HistoryBooks
	}
	res, err := m.built.Injector.RunCycle(cc)
	if err != nil {
		f.chaosFailures.Inc()
		sp.Fail(err)
		sp.Finish()
		f.log.Warn("chaos cycle failed", "region", id, "err", err)
		return nil, fmt.Errorf("fleet: region %s: %w", id, err)
	}
	f.chaosCycles.Inc()
	sp.SetAttr(fmt.Sprintf("%s detect=%v repair=%v", sc.Name, res.Detect, res.Repair))
	sp.Finish()
	f.log.Info("chaos cycle done", "region", id,
		"detect", res.Detect, "repair", res.Repair, "total", res.Total)
	return res, nil
}

// StormConfig describes a correlated multi-region failure event: the
// same storm hits K regions at once, each with its own sampled duct-cut
// scenario, all cycles running concurrently while the rest of the fleet
// keeps converging.
type StormConfig struct {
	// Regions names the regions to hit. Empty samples K regions from
	// Seed instead.
	Regions []string
	// K is the number of regions to sample when Regions is empty
	// (default 1, capped at the fleet size).
	K int
	// Seed pins region sampling and per-region scenario sampling.
	Seed int64
	// Cuts is the number of ducts severed per region (default 1).
	Cuts int
	// Cycle tunes every cycle in the storm.
	Cycle CycleOptions
}

// StormOutcome is one region's result in a storm.
type StormOutcome struct {
	Region string             `json:"region"`
	Result *chaos.CycleResult `json:"result,omitempty"`
	Error  string             `json:"error,omitempty"`
}

// Storm runs a correlated multi-region chaos event: every targeted
// region is pinned and driven through a full failure-recovery cycle
// concurrently. Outcomes are ordered by region id order of the targets;
// a region that is busy or chaos-less reports an error outcome rather
// than failing the storm.
func (f *Fleet) Storm(cfg StormConfig) []StormOutcome {
	targets := cfg.Regions
	if len(targets) == 0 {
		k := cfg.K
		if k <= 0 {
			k = 1
		}
		if k > len(f.members) {
			k = len(f.members)
		}
		rng := rand.New(rand.NewSource(cfg.Seed))
		for _, i := range rng.Perm(len(f.members))[:k] {
			targets = append(targets, f.members[i].id)
		}
	}
	cuts := cfg.Cuts
	if cuts <= 0 {
		cuts = 1
	}

	f.log.Info("storm start", "regions", targets, "cuts", cuts)
	out := make([]StormOutcome, len(targets))
	var wg sync.WaitGroup
	for i, id := range targets {
		out[i].Region = id
		m := f.member(id)
		if m == nil {
			out[i].Error = fmt.Sprintf("unknown region %q", id)
			continue
		}
		// Sample each region's scenario from its own map: correlated in
		// time, independent in exactly which ducts fail.
		scs := chaos.SampleCuts(cfg.Seed+int64(i), m.built.Rig.Dep.Region.Map, cuts, 1)
		if len(scs) == 0 {
			out[i].Error = "no usable duct-cut scenario"
			continue
		}
		wg.Add(1)
		go func(i int, id string, sc chaos.Scenario) {
			defer wg.Done()
			res, err := f.runChaosCycle(id, sc, cfg.Cycle)
			if err != nil {
				out[i].Error = err.Error()
				return
			}
			out[i].Result = res
		}(i, id, scs[0])
	}
	wg.Wait()
	return out
}
