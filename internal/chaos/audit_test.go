package chaos

import (
	"reflect"
	"testing"

	"iris/internal/core"
)

func TestAuditBaseline(t *testing.T) {
	_, dep := toyRegion(t, 0)
	a := NewAuditor(dep.Plan)
	res := a.Audit(Cut())
	if !res.Admissible || !res.Survives {
		t.Fatalf("failure-free baseline not surviving: %+v", res)
	}
	if res.DisconnectedPairs != 0 || len(res.Overloads) != 0 {
		t.Fatalf("baseline reports damage: %+v", res)
	}
	if res.MaxStretch != 1 {
		t.Fatalf("baseline MaxStretch = %v, want 1", res.MaxStretch)
	}
	if res.WorstPairFibers <= 0 {
		t.Fatalf("baseline WorstPairFibers = %v, want > 0", res.WorstPairFibers)
	}
	if res.SLAViolations != 0 {
		t.Fatalf("baseline SLA violations = %d, want 0", res.SLAViolations)
	}
}

// TestToyMaxFailuresTwoExhaustive is the issue's acceptance criterion: an
// exhaustive audit of the MaxFailures=2 plan on the paper's example region
// must report 100% hose admissibility for every scenario of at most two
// duct cuts.
func TestToyMaxFailuresTwoExhaustive(t *testing.T) {
	toy, dep := toyRegion(t, 2)
	a := NewAuditor(dep.Plan)
	scs := EnumerateCuts(toy.Map, 2)
	results := a.Run(scs, 0)
	for _, r := range results {
		if !r.Admissible {
			t.Errorf("scenario %q not admissible: overloads %v, residual %v",
				r.Scenario.Name, r.Overloads, r.ResidualOverloads)
		}
	}
	curve := Curve(results)
	if len(curve) != 3 {
		t.Fatalf("curve has %d points, want 3 (0, 1, 2 cuts)", len(curve))
	}
	wantScenarios := []int{1, 5, 10}
	for i, p := range curve {
		if p.Cuts != i || p.Scenarios != wantScenarios[i] {
			t.Fatalf("curve point %d = %+v, want cuts=%d scenarios=%d", i, p, i, wantScenarios[i])
		}
		if p.FracAdmissible() != 1 {
			t.Fatalf("admissibility at %d cuts = %v, want 1", p.Cuts, p.FracAdmissible())
		}
	}
	// The toy is a tree, so only the baseline fully survives: every cut
	// disconnects some DC.
	if curve[0].Surviving != 1 || curve[1].Surviving != 0 || curve[2].Surviving != 0 {
		t.Fatalf("tree-region survival counts wrong: %+v", curve)
	}
}

func TestAuditDisconnection(t *testing.T) {
	toy, dep := toyRegion(t, 1)
	a := NewAuditor(dep.Plan)

	// Cutting DC1's access duct strands exactly that DC: three pairs die,
	// the rest must still be admissible.
	res := a.Audit(Cut(toy.L1))
	if res.Survives {
		t.Fatal("cut of an access duct reported as fully survived on a tree region")
	}
	if !res.Admissible {
		t.Fatalf("surviving pairs not admissible after access cut: %+v", res)
	}
	if res.DisconnectedPairs != 3 {
		t.Fatalf("disconnected pairs = %d, want 3", res.DisconnectedPairs)
	}
	if !reflect.DeepEqual(res.DisconnectedDCs, []int{toy.DC1}) {
		t.Fatalf("disconnected DCs = %v, want [%d]", res.DisconnectedDCs, toy.DC1)
	}

	// Cutting the hub-hub duct splits the region in half: the four
	// cross-hub pairs die; the tie between the halves breaks toward the
	// cluster holding DC1, so DC3 and DC4 are reported stranded.
	res = a.Audit(Cut(toy.L5))
	if res.DisconnectedPairs != 4 {
		t.Fatalf("hub-cut disconnected pairs = %d, want 4", res.DisconnectedPairs)
	}
	if !reflect.DeepEqual(res.DisconnectedDCs, []int{toy.DC3, toy.DC4}) {
		t.Fatalf("hub-cut disconnected DCs = %v, want [%d %d]", res.DisconnectedDCs, toy.DC3, toy.DC4)
	}
}

func TestRunParallelDeterministic(t *testing.T) {
	toy, dep := toyRegion(t, 2)
	a := NewAuditor(dep.Plan)
	scs := EnumerateCuts(toy.Map, 2)
	serial := a.Run(scs, 1)
	par := a.Run(scs, 4)
	if !reflect.DeepEqual(serial, par) {
		t.Fatal("parallel audit differs from serial")
	}
}

func TestSummaryAndCurveShapes(t *testing.T) {
	toy, dep := toyRegion(t, 1)
	a := NewAuditor(dep.Plan)
	results := a.Run(EnumerateCuts(toy.Map, 1), 0)
	s := Summary(results)
	if s == "" {
		t.Fatal("empty summary")
	}
	if got := Summary(nil); got == "" {
		t.Fatal("Summary(nil) empty")
	}
	if pts := Curve(nil); len(pts) != 0 {
		t.Fatalf("Curve(nil) = %v, want empty", pts)
	}
}

// An auditor takes what it keeps of a plan — the graph and a copy of the
// hose-load memo planning left — when it is built, so it outlives the Plan
// of a reused Solver: after the Solver re-plans the region and then plans
// another, an auditor built from its first plan audits, four workers at a
// time, exactly as one built from a plan that owns its storage.
func TestAuditorOutlivesSolverPlan(t *testing.T) {
	dep := planSynthetic(t, 1, 20, 2)
	m := dep.Region.Map
	scs := append(EnumerateCuts(m, 1), SampleCuts(2, m, 2, 100)...)
	want := NewAuditor(dep.Plan).Run(scs, 1)

	s := core.NewSolver(core.Options{MaxFailures: 2})
	held, err := s.Solve(dep.Region)
	if err != nil {
		t.Fatal(err)
	}
	a := NewAuditor(held.Plan)
	for _, r := range []core.Region{dep.Region, planSynthetic(t, 2, 16, 0).Region} {
		if _, err := s.Solve(r); err != nil {
			t.Fatal(err)
		}
	}
	if got := a.Run(scs, 4); !reflect.DeepEqual(got, want) {
		t.Fatal("an auditor of a reused Solver's plan audits differently once the Solver planned again")
	}
}

// flowsRun sums the MaxFlow runs of an idle auditor's workers.
func (a *Auditor) flowsRun() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	n := 0
	for _, w := range a.free {
		n += w.flows
	}
	return n
}

// BenchmarkAudit20DC audits the benchmark's region — the seed-1 map with
// 20 DCs planned for two cuts — against every single cut and 200 sampled
// double cuts, serially on a warmed auditor. It gates work, not time, and
// fails itself above two allocations or three max-flows per scenario
// (19 when every scenario ran its flows from nothing; the failure-free
// flows the first scenario keeps are counted in): a warmed worker routes,
// loads and runs its flows on storage it keeps, and what a scenario may
// allocate is its result's own lists.
func BenchmarkAudit20DC(b *testing.B) {
	dep := planSynthetic(b, 1, 20, 2)
	m := dep.Region.Map
	scs := append(EnumerateCuts(m, 1), SampleCuts(1, m, 2, 200)...)
	a := NewAuditor(dep.Plan)
	run := func() { a.Run(scs, 1) }
	run()
	flows := float64(a.flowsRun()) / float64(len(scs))
	if per := testing.AllocsPerRun(3, run) / float64(len(scs)); per > 2 {
		b.Fatalf("a warmed audit allocates %.1f times per scenario, want at most 2", per)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.ReportMetric(flows, "flows/scenario")
	if flows > 3 {
		b.Fatalf("the audit ran %.2f max-flows per scenario, want at most 3", flows)
	}
}
