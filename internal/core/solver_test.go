package core

import (
	"testing"

	"iris/internal/fibermap"
)

func solverRegion(t *testing.T, seed int64, n, f int) Region {
	t.Helper()
	m, err := fibermap.Spec{Seed: seed, DCs: n}.Map()
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	return UniformRegion(m, f, 40)
}

// A reused Solver must reproduce Plan exactly: same scenario count, same
// provisioning totals, and identical priced breakdowns for all three
// architectures, across seeds and interleaved regions. Plan-level
// bit-identity is covered exhaustively in the plan package; here we pin
// the deployment-level outputs the rest of the system consumes.
func TestSolverMatchesPlan(t *testing.T) {
	opts := DefaultOptions()
	opts.MaxFailures = 1
	s := NewSolver(opts)
	check := func(r Region, label string) {
		t.Helper()
		want, err := Plan(r, opts)
		if err != nil {
			t.Fatalf("%s: Plan: %v", label, err)
		}
		got, err := s.Solve(r)
		if err != nil {
			t.Fatalf("%s: Solve: %v", label, err)
		}
		if got.Plan.NScena != want.Plan.NScena {
			t.Fatalf("%s: NScena %d != %d", label, got.Plan.NScena, want.Plan.NScena)
		}
		if gp, wp := got.Plan.TotalFiberPairs(), want.Plan.TotalFiberPairs(); gp != wp {
			t.Fatalf("%s: fiber pairs %d != %d", label, gp, wp)
		}
		if ga, wa := got.Plan.TotalAmps(), want.Plan.TotalAmps(); ga != wa {
			t.Fatalf("%s: amps %d != %d", label, ga, wa)
		}
		if got.Iris != want.Iris || got.EPS != want.EPS || got.Hybrid != want.Hybrid {
			t.Fatalf("%s: breakdowns differ:\n got %+v %+v %+v\nwant %+v %+v %+v",
				label, got.Iris, got.EPS, got.Hybrid, want.Iris, want.EPS, want.Hybrid)
		}
	}
	for seed := int64(0); seed < 3; seed++ {
		a := solverRegion(t, seed, 6, 8)
		b := solverRegion(t, seed+50, 5, 16)
		check(a, "A first")
		check(a, "A re-solved")
		check(b, "B after A")
		check(a, "A after B")
	}
}

// A warmed Solver re-solving an unchanged region must not allocate:
// planning, pricing (including the Hybrid bundling scratch) and the
// deployment refill all run on retained state. This is the PR's headline
// contract — the daemon's converge loop runs Solve at steady state.
func TestSolverSteadyStateZeroAlloc(t *testing.T) {
	r := solverRegion(t, 1, 6, 8)
	opts := DefaultOptions()
	opts.MaxFailures = 1
	s := NewSolver(opts)
	for i := 0; i < 2; i++ {
		if _, err := s.Solve(r); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(10, func() {
		if _, err := s.Solve(r); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("warmed Solver.Solve allocated %v per run, want 0", avg)
	}
}

// The deployment a throwaway Solver returns via Plan must stay intact
// when other solvers keep planning — i.e. Plan's result aliases nothing
// shared.
func TestPlanResultIndependent(t *testing.T) {
	opts := DefaultOptions()
	opts.MaxFailures = 1
	a := solverRegion(t, 2, 6, 8)
	b := solverRegion(t, 3, 5, 8)
	depA, err := Plan(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	before := depA.Plan.TotalFiberPairs()
	nscena := depA.Plan.NScena
	if _, err := Plan(b, opts); err != nil {
		t.Fatal(err)
	}
	if depA.Plan.TotalFiberPairs() != before || depA.Plan.NScena != nscena {
		t.Fatalf("Plan result mutated by a later Plan call")
	}
}
