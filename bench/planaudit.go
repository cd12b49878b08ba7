package main

import (
	"fmt"
	"time"

	"iris/internal/chaos"
	"iris/internal/core"
	"iris/internal/fibermap"
	"iris/internal/hose"
	"iris/internal/plan"
)

// planInstances is how many separately generated copies of the region
// plan-audit rotates through. The held Solver keys its workspace on the
// map's identity, so alternating copies puts every Solve on the path a
// production bring-up takes — a region the Solver has not just planned —
// while every operation still does the same amount of work.
const planInstances = 2

// planDoubleCuts is how many sampled two-duct cuts each operation audits
// on top of every single-duct cut. At 120 the audit takes longer than the
// plan it checks while an operation stays short enough for ~35 in a run.
const planDoubleCuts = 120

// placedRegion generates the benchmark's region map and places its DCs,
// under spans when rec is non-nil.
func placedRegion(rec *recorder) (core.Region, error) {
	rec.nextOp()
	root := rec.begin("region", -1)
	defer rec.end(root)

	s := rec.begin("fibermap.generate", root)
	gcfg := fibermap.DefaultGen()
	gcfg.Seed = mapSeed
	m := fibermap.Generate(gcfg)
	rec.end(s)

	s = rec.begin("fibermap.place", root)
	pcfg := fibermap.DefaultPlace()
	pcfg.Seed, pcfg.N = mapSeed, regionDCs
	_, err := fibermap.PlaceDCs(m, pcfg)
	rec.end(s)
	if err != nil {
		return core.Region{}, err
	}
	caps := make(map[int]int)
	for _, dc := range m.DCs() {
		caps[dc] = regionCapacity
	}
	return core.Region{Map: m, Capacity: caps, Lambda: regionLambda}, nil
}

func placedRegions(rec *recorder) ([]core.Region, error) {
	out := make([]core.Region, planInstances)
	for i := range out {
		r, err := placedRegion(rec)
		if err != nil {
			return nil, err
		}
		out[i] = r
	}
	return out, nil
}

// planner is plan-audit's state: one held Solver and the scenario sets.
type planner struct {
	seed    int64
	regions []core.Region
	solver  *core.Solver
	singles []chaos.Scenario
	rec     *recorder
	chk     *checks

	scenarios, inadmissible int
	solveMS, solveAllocs    []float64
	auditAllocs             []float64
	stageMS                 map[string][]float64
	priceUS                 []float64
	plannerScenarios        int // failure scenarios Algorithm 1 examined
	ops                     int // operations started; rotates instances and cut samples
}

func newPlanner(seed int64, regions []core.Region, chk *checks) *planner {
	p := &planner{
		seed: seed, regions: regions, chk: chk,
		solver:  core.NewSolver(core.Options{MaxFailures: 2}),
		stageMS: make(map[string][]float64),
	}
	for _, sc := range chaos.EnumerateCuts(regions[0].Map, 1) {
		if sc.CutCount() == 1 {
			p.singles = append(p.singles, sc)
		}
	}
	return p
}

// op plans one region for every ≤2 duct cut and audits the guarantee:
// every single cut and a fresh sample of double cuts must be admissible.
func (p *planner) op() (time.Duration, error) {
	i := p.ops
	p.ops++
	region := p.regions[i%len(p.regions)]
	doubles := chaos.SampleCuts(p.seed+int64(i), region.Map, 2, planDoubleCuts)
	scenarios := append(append([]chaos.Scenario(nil), p.singles...), doubles...)

	rec := p.rec
	rec.nextOp()
	root := rec.begin("plan-audit", -1)
	var m0 uint64
	if rec != nil {
		m0 = mallocs()
	}
	s := rec.begin("core.solve", root)
	t0 := now()
	dep, err := p.solver.Solve(region)
	solve := since(t0)
	rec.end(s)
	p.chk.attempt()
	if err != nil {
		p.chk.fail("solve: %v", err)
		return 0, fmt.Errorf("solve: %w", err)
	}
	if rec != nil {
		p.solveAllocs = append(p.solveAllocs, float64(mallocs()-m0))
		p.solveMS = append(p.solveMS, msOf(solve))
		var staged time.Duration
		for _, st := range dep.Plan.Stages {
			if st.Stage == "total" {
				continue
			}
			staged += st.Duration
			p.stageMS[st.Stage] = append(p.stageMS[st.Stage], msOf(st.Duration))
		}
		p.priceUS = append(p.priceUS, usOf(solve-staged))
		p.plannerScenarios = dep.Plan.NScena
	}

	t0 = now()
	auditor := chaos.NewAuditor(dep.Plan)
	var results []chaos.Result
	if rec == nil {
		results = auditor.Run(scenarios, 1)
	} else {
		results = make([]chaos.Result, len(scenarios))
		m0 = mallocs()
		for j, sc := range scenarios {
			s := rec.begin("chaos.audit", root)
			results[j] = auditor.Audit(sc)
			rec.end(s)
		}
		p.auditAllocs = append(p.auditAllocs, float64(mallocs()-m0)/float64(len(scenarios)))
	}
	el := solve + since(t0)
	rec.end(root)

	for _, res := range results {
		p.scenarios++
		p.chk.attempt()
		if !res.Admissible {
			p.inadmissible++
			p.chk.fail("%s is inadmissible on a plan for 2 failures", res.Scenario.Name)
		}
	}
	if rec != nil {
		p.kernels(region, doubles[i%len(doubles)], root)
	}
	return el, nil
}

// kernels calls the graph and hose functions the auditor is built on,
// once per operation, on the scenario given.
func (p *planner) kernels(region core.Region, sc chaos.Scenario, parent int) {
	rec := p.rec
	base := plan.BaseGraph(region.Map)
	s := rec.begin("graph.without_edges", parent)
	g := base.WithoutEdges(sc.CutSet())
	rec.end(s)

	dcs := region.Map.DCs()
	s = rec.begin("graph.dijkstra", parent)
	g.Dijkstra(dcs[0])
	rec.end(s)

	caps := make(map[int]float64, len(dcs))
	var pairs []hose.Pair
	for i, a := range dcs {
		caps[a] = float64(region.Capacity[a])
		for _, b := range dcs[i+1:] {
			pairs = append(pairs, hose.Pair{A: a, B: b})
		}
	}
	s = rec.begin("hose.worstcase", parent)
	hose.WorstCaseLoad(caps, pairs)
	rec.end(s)
}

func (p *planner) loop(b budget) (ms []float64, busy time.Duration, err error) {
	for start := time.Now(); !b.done(start, len(ms)); {
		el, err := p.op()
		if err != nil {
			return ms, busy, err
		}
		busy += el
		ms = append(ms, msOf(el))
	}
	return ms, busy, nil
}

// runPlanAudit is plan-audit: the paper's Algorithm 1 at its operational
// tolerance of two duct cuts, and the check of its guarantee. No devices,
// no daemon.
func runPlanAudit(cfg runConfig) (*result, error) {
	res := newResult()
	regions, setup, err := medianSetup(cfg.setups,
		func() ([]core.Region, error) { return placedRegions(cfg.rec) }, func([]core.Region) {})
	if err != nil {
		return nil, err
	}
	p := newPlanner(cfg.seed, regions, &res.checks)
	for i := 0; i < cfg.warm; i++ {
		if _, err := p.op(); err != nil {
			return nil, err
		}
	}
	if cfg.rec == nil {
		ms, busy, err := p.loop(cfg.budget)
		if err != nil {
			return nil, err
		}
		res.set("setup_s", setup)
		res.opStats("plan+audit", ms, busy)
		res.note("%d scenarios audited per plan, %d inadmissible", len(p.singles)+planDoubleCuts, p.inadmissible)
		return res, nil
	}

	setupSpans := cfg.rec.spans // nothing but set-up has been traced so far
	untraced, _, err := p.loop(cfg.budget.part(1, 3))
	if err != nil {
		return nil, err
	}
	p.rec = cfg.rec
	p.scenarios, p.inadmissible = 0, 0
	measured := len(cfg.rec.spans)
	ms, _, err := p.loop(cfg.budget.part(2, 3))
	if err != nil {
		return nil, err
	}
	spans := cfg.rec.spans[measured:]
	us := func(name string) float64 { return median(spanUS(spans, name)) }

	res.set("fibermap.generate_us", median(spanUS(setupSpans, "fibermap.generate")))
	res.set("fibermap.place_ms", median(spanUS(setupSpans, "fibermap.place"))/1e3)
	res.set("core.solve_ms", median(p.solveMS))
	res.set("core.solve_allocs", median(p.solveAllocs))
	for _, st := range []string{"route", "amps", "cutthrough", "provision"} {
		res.set("plan."+st+"_ms", median(p.stageMS[st]))
	}
	res.set("cost.price_us", median(p.priceUS))
	res.set("chaos.audit_us_per_scenario", us("chaos.audit"))
	res.set("chaos.audit_allocs_per_scenario", median(p.auditAllocs))
	res.set("chaos.scenarios", share(p.scenarios, len(ms)))
	res.set("chaos.inadmissible", share(p.inadmissible, p.scenarios))
	res.set("graph.scenarios_k2", float64(p.plannerScenarios))
	res.set("graph.without_edges_us", us("graph.without_edges"))
	res.set("graph.dijkstra_us", us("graph.dijkstra"))
	res.set("hose.worstcase_us", us("hose.worstcase"))
	res.set("trace.overhead_ratio", median(ms)/median(untraced))
	res.note("plan+audit ms: untraced %s; traced %s", summarize(untraced), summarize(ms))
	return res, nil
}
