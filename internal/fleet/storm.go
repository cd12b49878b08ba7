package fleet

import (
	"context"
	"fmt"
	"math/rand"
	"sync"

	"iris/internal/chaos"
	"iris/internal/daemon"
)

// runChaosCycle pins region id busy and drives it through one full
// inject→detect→restore→heal→replan→settle cycle
// (daemon.Daemon.ChaosCycle). While pinned, the scheduler skips the
// region — its siblings keep converging untouched — and the cycle's own
// pump advances the region instead. The cycle is journaled as a
// fleet-chaos span on the fleet tracer; the detailed chaos-cycle span
// tree lands on the region's own recorder.
//
// It fails fast if the region is unknown, has no chaos injector armed,
// or is already busy (a cycle or dispatch owns it).
func (f *Fleet) runChaosCycle(ctx context.Context, id string, sc chaos.Scenario, opt daemon.CycleOptions) (*daemon.CycleResult, error) {
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

	sp := f.tracer.Start(f.tracer.NextID(), "fleet-chaos")
	sp.SetDevice(id)
	sp.SetAttr(sc.Name)
	f.log.Info("chaos cycle start", "region", id, "scenario", sc.Name)
	res, err := m.built.Daemon.ChaosCycle(ctx, sc, opt)
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
	Cycle daemon.CycleOptions
}

// StormOutcome is one region's result in a storm.
type StormOutcome struct {
	Region string              `json:"region"`
	Result *daemon.CycleResult `json:"result,omitempty"`
	Error  string              `json:"error,omitempty"`
}

// Storm runs a correlated multi-region chaos event: every targeted
// region is pinned and driven through a full failure-recovery cycle
// concurrently. Outcomes are ordered by region id order of the targets;
// a region that is busy or chaos-less reports an error outcome rather
// than failing the storm. Cancelling ctx fails every cycle still waiting.
func (f *Fleet) Storm(ctx context.Context, cfg StormConfig) []StormOutcome {
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
			res, err := f.runChaosCycle(ctx, id, sc, cfg.Cycle)
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
