package plan

import (
	"math"
	"math/bits"
	"slices"
	"testing"
	"time"

	"iris/internal/fibermap"
	"iris/internal/geo"
	"iris/internal/graph"
	"iris/internal/hose"
	"iris/internal/optics"
)

// arenaInput builds a generated-region planning input.
func arenaInput(t testing.TB, seed int64, n, f, maxFailures int) Input {
	t.Helper()
	m, err := fibermap.Spec{Seed: seed, DCs: n}.Map()
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	dcs := m.DCs()
	caps := make(map[int]int)
	for _, dc := range dcs {
		caps[dc] = f
	}
	return Input{Map: m, Capacity: caps, Lambda: 40, MaxFailures: maxFailures}
}

func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// plansIdentical asserts two plans agree on every output field, treating
// nil and empty slices as equal (a reused arena returns empty slices
// where a fresh solve returns nil).
func plansIdentical(t *testing.T, label string, want, got *Plan) {
	t.Helper()
	if got.NScena != want.NScena {
		t.Fatalf("%s: NScena %d != %d", label, got.NScena, want.NScena)
	}
	if len(got.Ducts) != len(want.Ducts) {
		t.Fatalf("%s: %d ducts != %d", label, len(got.Ducts), len(want.Ducts))
	}
	for id, w := range want.Ducts {
		g := got.Ducts[id]
		if g == nil || *g != *w {
			t.Fatalf("%s: duct %d = %+v, want %+v", label, id, g, w)
		}
	}
	if len(got.Amps) != len(want.Amps) {
		t.Fatalf("%s: %d amp sites != %d", label, len(got.Amps), len(want.Amps))
	}
	for v, w := range want.Amps {
		if got.Amps[v] != w {
			t.Fatalf("%s: amps[%d] = %d, want %d", label, v, got.Amps[v], w)
		}
	}
	if len(got.Paths) != len(want.Paths) {
		t.Fatalf("%s: %d paths != %d", label, len(got.Paths), len(want.Paths))
	}
	for pair, w := range want.Paths {
		g := got.Paths[pair]
		if g == nil {
			t.Fatalf("%s: pair %v missing", label, pair)
		}
		if g.Pair != w.Pair || g.TotalKM != w.TotalKM ||
			!intsEqual(g.Nodes, w.Nodes) || !intsEqual(g.Ducts, w.Ducts) ||
			!intsEqual(g.AmpNodes, w.AmpNodes) || !intsEqual(g.Bypassed, w.Bypassed) ||
			!intsEqual(g.CutDucts, w.CutDucts) {
			t.Fatalf("%s: pair %v path = %+v, want %+v", label, pair, g, w)
		}
	}
	if len(got.Cuts) != len(want.Cuts) {
		t.Fatalf("%s: %d cut-throughs != %d", label, len(got.Cuts), len(want.Cuts))
	}
	for i := range want.Cuts {
		w, g := want.Cuts[i], got.Cuts[i]
		if g.From != w.From || g.To != w.To || g.Pairs != w.Pairs ||
			!intsEqual(g.Ducts, w.Ducts) || !intsEqual(g.Interior, w.Interior) {
			t.Fatalf("%s: cut-through %d = %+v, want %+v", label, i, g, w)
		}
	}
	if len(got.SLA) != len(want.SLA) {
		t.Fatalf("%s: %d SLA records != %d", label, len(got.SLA), len(want.SLA))
	}
	for i := range want.SLA {
		w, g := want.SLA[i], got.SLA[i]
		if g.Pair != w.Pair || g.TotalKM != w.TotalKM || !intsEqual(g.Cuts, w.Cuts) {
			t.Fatalf("%s: SLA %d = %+v, want %+v", label, i, g, w)
		}
	}
	if len(got.Viol) != len(want.Viol) {
		t.Fatalf("%s: %d violations != %d", label, len(got.Viol), len(want.Viol))
	}
	for i := range want.Viol {
		if got.Viol[i] != want.Viol[i] {
			t.Fatalf("%s: viol %d = %q, want %q", label, i, got.Viol[i], want.Viol[i])
		}
	}
}

// A reused Planner must return bit-identical plans to fresh solves, across
// seeds, capacity changes, tolerance changes and interleaved regions —
// both the fingerprint-hit path (same region re-solved) and the miss path
// (workspace rebuilt) are exercised by one shared instance.
func TestPlannerReuseBitIdentical(t *testing.T) {
	shared := NewPlanner()
	solve := func(in Input, label string) {
		t.Helper()
		want, err := New(in)
		if err != nil {
			t.Fatalf("%s: fresh: %v", label, err)
		}
		got, err := shared.Plan(in)
		if err != nil {
			t.Fatalf("%s: reused: %v", label, err)
		}
		plansIdentical(t, label, want, got)
	}
	for seed := int64(0); seed < 4; seed++ {
		a := arenaInput(t, seed, 6, 8, 1)
		b := arenaInput(t, seed+100, 5, 16, 1)
		solve(a, "A first")
		solve(a, "A re-solved (fingerprint hit)")
		solve(b, "B after A (fingerprint miss)")
		solve(a, "A after B (fingerprint miss)")
		af := a
		af.MaxFailures = 0
		solve(af, "A tolerance change")
		ac := arenaInput(t, seed, 6, 16, 1)
		solve(ac, "A capacity change")
	}
	// Centralized designs route differently; cover the hub path too.
	in := arenaInput(t, 2, 5, 8, 1)
	h1, h2 := fibermap.ChooseHubs(in.Map, 5)
	in.ViaHubs = []int{h1, h2}
	solve(in, "centralized")
}

// A warmed Planner re-solving the same region must not allocate: the
// whole pipeline — scenario DFS, routing, amplifier and cut-through
// placement, hose-load lookups, provisioning, output maps — runs on the
// retained arena.
func TestPlannerSteadyStateZeroAlloc(t *testing.T) {
	in := arenaInput(t, 1, 6, 8, 1)
	p := NewPlanner()
	if _, err := p.Plan(in); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Plan(in); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(10, func() {
		if _, err := p.Plan(in); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("warmed Planner.Plan allocated %v per run, want 0", avg)
	}
}

// A warmed Evaluator must route and load scenarios without allocating:
// the failure-free scenario, every single cut and a run of double cuts,
// all on slabs and a hose-load memo the first pass filled — in the
// distributed design and in the centralized one, whose walks put pairs on
// the multi-crossing lists.
func TestEvaluatorSteadyStateZeroAlloc(t *testing.T) {
	in := arenaInput(t, 1, 6, 8, 1)
	evaluatorSweepZeroAlloc(t, "distributed", in)
	hubbed := arenaInput(t, 2, 5, 8, 1)
	h1, h2 := fibermap.ChooseHubs(hubbed.Map, 5)
	hubbed.ViaHubs = []int{h1, h2}
	evaluatorSweepZeroAlloc(t, "via-hub", hubbed)
}

func evaluatorSweepZeroAlloc(t *testing.T, label string, in Input) {
	ev := newEvaluator(in)
	edges := ev.base.Edges()
	sweep := func() {
		ev.Route()
		ev.Load(nil, nil)
		for i, e := range edges {
			ev.Cut.Push(e.ID)
			ev.Route()
			ev.Load(nil, nil)
			second := edges[(i+1)%len(edges)].ID
			ev.Cut.Push(second)
			ev.Route()
			ev.Load(nil, nil)
			ev.Cut.Pop(second)
			ev.Cut.Pop(e.ID)
		}
	}
	sweep()
	if avg := testing.AllocsPerRun(5, sweep); avg != 0 {
		t.Fatalf("%s: warmed Evaluator allocated %v per sweep, want 0", label, avg)
	}
}

// BenchmarkPlanK2Region20 is Algorithm 1 at the paper's operational
// tolerance on the region bench/ plans (generated map seed 1, 20 DCs, k =
// 2), on a warmed Planner. It gates the work a scenario may cost, read
// off the evaluator's own counters, so that the time cannot quietly grow
// back: per solve exactly 2 041 scenarios and at most one failure-free
// tree per source, per scenario at most 12 routes read off trees (190
// when every scenario re-read every pair), 12 span walks (11.0: one per
// route read, plus one per interior node of a route read over the span
// limit, where its amplifier sites are found; 19.1 when Algorithm 2
// probed every pending path's interior nodes in every scenario, 200 when
// it opened by walking every pair) and 25 tree labels overwritten by
// repairs (19.1; 188 settled per scenario when every touched source ran
// Dijkstra), no more labels put back by undo than repairs overwrote, and
// no allocation.
func BenchmarkPlanK2Region20(b *testing.B) { benchPlanRegion20(b, 2, 2041, 12, 12, 25) }

// BenchmarkPlanK3Region20 is the same region and gates at k = 3, where
// scenarios must be cheap enough to sweep one cut deeper than the plan:
// exactly 43 260 scenarios, and per scenario at most 12 routes read, 13
// span walks and 28 labels overwritten (9.8, 11.8 and 22.1).
func BenchmarkPlanK3Region20(b *testing.B) { benchPlanRegion20(b, 3, 43260, 12, 13, 28) }

// BenchmarkPlanK2Region20Cold is BenchmarkPlanK2Region20's region planned
// the way plan-audit plans it: two separately generated copies alternate
// on one Planner, so every solve prepares afresh and starts from an empty
// hose memo, and every pair set it loads is a max-flow. It fails unless
// each solve examines exactly 2 041 scenarios and runs exactly 3 597
// max-flows. ns/maxflow is hose.LP alone on the last solve's pair sets,
// re-solved in the order the memo met them on a warmed LP, each to the
// memo's float.
func BenchmarkPlanK2Region20Cold(b *testing.B) {
	const wantScenarios, wantLPs = 2041, 3597
	ins := [2]Input{arenaInput(b, 1, 20, 10, 2), arenaInput(b, 1, 20, 10, 2)}
	p := NewPlanner()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Plan(ins[i%2]); err != nil {
			b.Fatal(err)
		}
		if w := p.ev.work; w.scenarios != wantScenarios || w.lps != wantLPs {
			b.Fatalf("solve %d: %d scenarios (want %d), %d max-flows (want %d)", i, w.scenarios, wantScenarios, w.lps, wantLPs)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(p.ev.work.lps), "maxflows/op")

	ev := p.ev
	width := ev.memo.idx.width
	sets := make([][]hose.Pair, len(ev.memo.loads))
	for id := range sets {
		for w, rest := range ev.memo.idx.slab[id*width : (id+1)*width] {
			for ; rest != 0; rest &= rest - 1 {
				sets[id] = append(sets[id], ev.pairPos[w*64+bits.TrailingZeros64(rest)])
			}
		}
	}
	var lp hose.LP
	for id, ps := range sets {
		if got, want := lp.WorstCaseLoad(ev.caps, ps), ev.memo.loads[id]; math.Float64bits(got) != math.Float64bits(want) {
			b.Fatalf("pair set %d: LP %v, memo %v", id, got, want)
		}
	}
	const rounds = 20
	t0 := time.Now()
	for r := 0; r < rounds; r++ {
		for _, ps := range sets {
			lp.WorstCaseLoad(ev.caps, ps)
		}
	}
	b.ReportMetric(float64(time.Since(t0).Nanoseconds())/float64(rounds*len(sets)), "ns/maxflow")
}

func benchPlanRegion20(b *testing.B, k, wantScenarios int, maxRoutes, maxSpanWalks, maxRelabelled float64) {
	in := arenaInput(b, 1, 20, 10, k)
	in.Base = BaseGraph(in.Map)
	p := NewPlanner()
	solve := func() {
		if _, err := p.Plan(in); err != nil {
			b.Fatal(err)
		}
	}
	solve()
	solve()
	if avg := testing.AllocsPerRun(1, solve); avg != 0 {
		b.Fatalf("warmed k=%d solve allocated %v, want 0", k, avg)
	}
	before := p.ev.work
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		solve()
	}
	b.StopTimer()
	w, n := p.ev.work, float64(b.N)
	scenarios := float64(w.scenarios-before.scenarios) / n
	trees := float64(w.fullTrees-before.fullTrees) / n
	routes := float64(w.routesRead-before.routesRead) / n / scenarios
	relabelled := float64(w.relabelled-before.relabelled) / n / scenarios
	restored := float64(w.restored-before.restored) / n / scenarios
	spanWalks := float64(w.spanWalks-before.spanWalks) / n / scenarios
	b.ReportMetric(scenarios, "scenarios/op")
	b.ReportMetric(routes, "routes/scenario")
	b.ReportMetric(spanWalks, "span-walks/scenario")
	b.ReportMetric(relabelled, "relabelled/scenario")
	b.ReportMetric(restored, "restored/scenario")
	b.ReportMetric(float64(w.lookups-before.lookups)/n, "lookups/op")
	if scenarios != float64(wantScenarios) || trees > float64(len(p.ev.sources)) || routes > maxRoutes || spanWalks > maxSpanWalks || relabelled > maxRelabelled {
		b.Fatalf("per solve: %v scenarios (want %d), %v failure-free trees (at most %d); per scenario: %.1f routes read (at most %v), %.1f span walks (at most %v), %.1f labels overwritten (at most %v)",
			scenarios, wantScenarios, trees, len(p.ev.sources), routes, maxRoutes, spanWalks, maxSpanWalks, relabelled, maxRelabelled)
	}
	if restored > relabelled {
		b.Fatalf("undo put back %.2f labels per scenario, repairs overwrote %.2f: a frame restored what it did not log", restored, relabelled)
	}
}

// scanRegion is a hand-built region whose scenarios exercise every way the
// planner opens a scenario: DC0 and DC1 at the ends of a 70 km chain of
// six huts (over the switching budget, no amplifier), DC2 behind DC1 on a
// direct duct and a detour (a cut there changes DC2's routes and keeps
// the chain's), DC3 and DC4 at the ends of a 100 km chain of four huts (an
// amplifier clears it and puts it over the switching budget), and a 75 km
// duct from DC0 to DC3 (over the SLA distance, and over the span limit
// wherever the amplifier goes, for the pairs it joins).
func scanRegion(maxFailures int) Input {
	m := &fibermap.Map{}
	chain := func(from int, n int, km float64) int {
		prev := from
		for i := 0; i < n; i++ {
			h := m.AddNode(fibermap.Hut, geo.Point{}, "")
			m.AddDuct(prev, h, km)
			prev = h
		}
		return prev
	}
	dc := func() int { return m.AddNode(fibermap.DC, geo.Point{}, "") }
	dc0, dc1, dc2, dc3, dc4 := dc(), dc(), dc(), dc(), dc()
	m.AddDuct(chain(dc0, 6, 10), dc1, 10)
	m.AddDuct(dc1, dc2, 10)
	m.AddDuct(chain(dc1, 1, 10), dc2, 10)
	m.AddDuct(chain(dc3, 4, 20), dc4, 20)
	m.AddDuct(dc0, dc3, 75)
	caps := map[int]int{dc0: 4, dc1: 6, dc2: 3, dc3: 5, dc4: 2}
	return Input{Map: m, Capacity: caps, Lambda: 40, MaxFailures: maxFailures}
}

// TestScenarioDecisionsMatchFullScan: a scenario's stages open from the
// routes the evaluator flagged and take the last scenario's decisions off
// the records it marked, and that must be what walking every pair does.
// Through every cut of at most two ducts of scanRegion and of a generated
// region whose plan needs cut-throughs, in an order that repeats and
// undoes frames, each scenario is checked after the planner ran it: every
// pair a full scan finds over the SLA distance is recorded, one over the
// span limit with its amplifier or over the switching budget with its
// bypasses is reported as a violation, every rider is a duct of its pair's
// route, and the records and loads equal those of a second planner whose
// records are all reset before the scenario and which holds the same
// amplifiers.
func TestScenarioDecisionsMatchFullScan(t *testing.T) {
	ampOnly, bypassed := 0, 0
	for _, tc := range []struct {
		label string
		in    Input
	}{{"hand-built", scanRegion(2)}, {"generated, 24 DCs", arenaInput(t, 4, 24, 8, 2)}} {
		p, q := NewPlanner(), NewPlanner()
		for _, pl := range []*Planner{p, q} {
			if err := pl.prepare(tc.in); err != nil {
				t.Fatal(err)
			}
			pl.resetSolve(tc.in)
		}
		var ids []int
		for _, e := range p.ev.base.Edges() {
			ids = append(ids, e.ID)
		}
		if tc.label != "hand-built" {
			ids = ids[:12]
		}
		var cuts [][]int
		graph.FailureScenarios(ids, 2, func(cut []int) { cuts = append(cuts, slices.Clone(cut)) })
		cuts = append(cuts, cuts...) // again, from the deepest frame
		for _, cut := range cuts {
			ampsBefore := slices.Clone(p.ampsArr)
			viol, sla := len(p.plan.Viol), len(p.slaRecs)
			p.ev.Cut.Set(cut)
			if _, err := p.scenario(nil); err != nil {
				t.Fatal(err)
			}
			overSLA, unfixed := 0, 0
			for i := range p.recs {
				pr := &p.recs[i]
				if pr.TotalKM > optics.MaxPathKM+1e-9 {
					overSLA++
				}
				if p.ev.spanExceeded(pr.Route, pr.ampNode) {
					unfixed++
				}
				if reconfigViolated(pr) {
					unfixed++
				}
				if pr.ampNode >= 0 && len(pr.Ducts) < optics.MaxOSSPerPath && reconfigViolated(&pathRec{Route: pr.Route, ampNode: pr.ampNode}) {
					ampOnly++
				}
				if len(pr.bypass) > 0 && pr.ampNode < 0 {
					bypassed++
				}
				for _, d := range pr.cutDucts {
					if !slices.ContainsFunc(pr.Ducts, func(e graph.Edge) bool { return e.ID == d }) {
						t.Fatalf("%s, cut %v, pair %v rides a cut-through on duct %d, off its route", tc.label, cut, pr.Pair, d)
					}
				}
			}
			if got := len(p.slaRecs) - sla; got != overSLA {
				t.Fatalf("%s, cut %v: %d SLA records, %d pairs over the SLA distance", tc.label, cut, got, overSLA)
			}
			if got := len(p.plan.Viol) - viol; got != unfixed {
				t.Fatalf("%s, cut %v: %d violations reported, %d paths left over a limit", tc.label, cut, got, unfixed)
			}

			for i := range q.recs {
				q.recs[i].ampNode, q.recs[i].bypass, q.recs[i].cutDucts = -1, q.recs[i].bypass[:0], q.recs[i].cutDucts[:0]
			}
			q.marked = q.marked[:0]
			copy(q.ampsArr, ampsBefore)
			q.ev.Cut.Set(cut)
			if _, err := q.scenario(nil); err != nil {
				t.Fatal(err)
			}
			for i := range p.recs {
				a, b := &p.recs[i], &q.recs[i]
				if a.ampNode != b.ampNode || !sameSet(a.bypass, b.bypass) || !sameSet(a.cutDucts, b.cutDucts) {
					t.Fatalf("%s, cut %v, pair %v: amplifier %d, bypass %v, riding %v; from reset records %d, %v, %v",
						tc.label, cut, a.Pair, a.ampNode, a.bypass, a.cutDucts, b.ampNode, b.bypass, b.cutDucts)
				}
			}
			if g, w := p.ev.Load(nil, nil), q.ev.Load(nil, nil); !slices.Equal(g, w) || !slices.Equal(p.ampsArr, q.ampsArr) {
				t.Fatalf("%s, cut %v: loads or amplifiers differ from those of reset records:\n %v\n %v", tc.label, cut, g, w)
			}
		}
	}
	if ampOnly == 0 || bypassed == 0 {
		t.Errorf("%d paths over the switching budget by their amplifier, %d bypassed without one; the cases do not cover both openings",
			ampOnly, bypassed)
	}
}

func sameSet(a, b []int) bool {
	return len(a) == len(b) && !slices.ContainsFunc(a, func(v int) bool { return !slices.Contains(b, v) })
}
