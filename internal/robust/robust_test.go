package robust

import (
	"math"
	"math/rand"
	"testing"

	"iris/internal/core"
	"iris/internal/fibermap"
	"iris/internal/hose"
	"iris/internal/plan"
	"iris/internal/traffic"
)

func toyDep(t *testing.T) *core.Deployment {
	t.Helper()
	dep, err := core.Plan(core.UniformRegion(fibermap.Toy().Map, 10, 40), core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return dep
}

// evolve yields k successive matrices of the seeded §6.3 change process at
// the given utilisation and drift bound.
func evolve(dep *core.Deployment, seed int64, k int, util, bound float64) []*traffic.Matrix {
	capsW := dep.Region.HoseCaps()
	dcs := dep.Region.Map.DCs()
	base := traffic.HeavyTailed(rand.New(rand.NewSource(seed)), dcs, capsW, util)
	ev := traffic.NewEvolver(seed+1, base, traffic.ChangeProcess{Bound: bound, Caps: capsW, Util: util})
	ms := make([]*traffic.Matrix, 0, k)
	for i := 0; i < k; i++ {
		m, _ := ev.Next()
		ms = append(ms, m)
	}
	return ms
}

// TestSolveAdmissibleForAllMatrices is the robust-mode property test: an
// envelope solved over k seeded matrices must be verified admissible —
// per-pair demand within the provisioned wavelengths AND per-duct
// hose.WorstCaseLoad within the leased fiber — for EVERY matrix in the
// set. The check here is recomputed from scratch against the solved
// allocation, independently of solve's own verify call.
func TestSolveAdmissibleForAllMatrices(t *testing.T) {
	dep := toyDep(t)
	lambda := dep.Region.Lambda
	for _, seed := range []int64{1, 7, 42} {
		ms := evolve(dep, seed, 6, 0.5, 0.2)
		res, err := solve(dep, ms, DefaultConfig().Headroom)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !res.AllAdmissible {
			t.Fatalf("seed %d: envelope not admissible for all %d matrices: %+v", seed, len(ms), res.Verdicts)
		}
		if len(res.Verdicts) != len(ms) {
			t.Fatalf("seed %d: %d verdicts for %d matrices", seed, len(res.Verdicts), len(ms))
		}

		for i, m := range ms {
			// Per-pair coverage against the provisioned wavelengths.
			for p, dm := range m.Demand {
				prov := float64(res.Alloc.FibersFor(p)*lambda + res.Alloc.ResidualFor(p))
				if dm > prov+1e-6 {
					t.Errorf("seed %d matrix %d: pair %d-%d demand %.2f > provisioned %.2f",
						seed, i, p.A, p.B, dm, prov)
				}
			}
			// Per-duct worst-case hose load (matrix aggregates as hose
			// caps, in fiber units) against the leased base + cut-through
			// fiber.
			capsF := make(map[int]float64)
			for dc, agg := range m.PerDC() {
				capsF[dc] = agg / float64(lambda)
			}
			crossings := make(map[int][]hose.Pair)
			for p, dm := range m.Demand {
				if dm <= 0 {
					continue
				}
				info := dep.Plan.Paths[p.Canonical()]
				if info == nil {
					t.Fatalf("no planned path for pair %d-%d", p.A, p.B)
				}
				for _, duct := range info.Ducts {
					crossings[duct] = append(crossings[duct], p.Canonical())
				}
			}
			for duct, pairs := range crossings {
				du := dep.Plan.Ducts[duct]
				need := hose.WorstCaseLoad(capsF, pairs)
				if have := float64(du.BasePairs + du.CutThroughPairs); need > have+1e-9 {
					t.Errorf("seed %d matrix %d: duct %d worst-case load %.3f > provisioned %.0f",
						seed, i, duct, need, have)
				}
			}
		}

		if res.ProvisionedWavelengths <= 0 || res.Overprovision < 1 {
			t.Errorf("seed %d: provisioned=%.1f overprovision=%.2f, want positive capacity at ratio ≥ 1",
				seed, res.ProvisionedWavelengths, res.Overprovision)
		}
	}
}

// TestSolveTightensInfeasibleHeadroom starts from an absurd headroom that
// cannot fit the hose caps and checks the solver lands on a feasible
// inflation (hose feasibility is linear in the headroom, so the bound is
// computed analytically rather than burning budget) instead of erroring.
func TestSolveTightensInfeasibleHeadroom(t *testing.T) {
	dep := toyDep(t)
	ms := evolve(dep, 3, 4, 0.6, 0.2)
	res, err := solve(dep, ms, 5.0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Headroom >= 5.0 {
		t.Fatalf("headroom %.3f was not tightened (5.0 cannot be hose-feasible at util 0.6)", res.Headroom)
	}
	if res.Headroom < 1 {
		t.Fatalf("headroom %.3f fell below 1", res.Headroom)
	}
	if !res.AllAdmissible {
		t.Fatalf("tightened envelope not admissible: %+v", res.Verdicts)
	}
}

// TestSolveBestEffortWhenDominationInfeasible pins the degraded path: two
// individually feasible matrices whose element-wise max exceeds the hose
// caps force clamping, and the clamped envelope cannot cover both — solve
// must return the best allocatable envelope with AllAdmissible=false, not
// an error.
func TestSolveBestEffortWhenDominationInfeasible(t *testing.T) {
	dep := toyDep(t)
	dcs := dep.Region.Map.DCs()
	m1 := traffic.NewMatrix(dcs)
	m1.Set(hose.Pair{A: dcs[0], B: dcs[1]}, 390)
	m2 := traffic.NewMatrix(dcs)
	m2.Set(hose.Pair{A: dcs[0], B: dcs[2]}, 390)
	res, err := solve(dep, []*traffic.Matrix{m1, m2}, DefaultConfig().Headroom)
	if err != nil {
		t.Fatal(err)
	}
	if res.AllAdmissible {
		t.Fatal("domination of 780 wavelengths at one DC cannot be admissible under a 400-wavelength hose cap")
	}
	if !res.Envelope.Clamped {
		t.Error("envelope should have been clamped into the hose polytope")
	}
	bad := 0
	for _, v := range res.Verdicts {
		if !v.Admissible {
			bad++
			if len(v.Uncovered) == 0 {
				t.Errorf("matrix %d inadmissible without uncovered pairs", v.Index)
			}
		}
	}
	if bad == 0 {
		t.Error("no inadmissible verdicts despite AllAdmissible=false")
	}
}

func TestEnvelopeContainsEscapesUtilization(t *testing.T) {
	dep := toyDep(t)
	ms := evolve(dep, 5, 4, 0.5, 0.2)
	res, err := solve(dep, ms, DefaultConfig().Headroom)
	if err != nil {
		t.Fatal(err)
	}
	env := res.Envelope

	for i, m := range ms {
		if !env.Contains(m) {
			t.Errorf("matrix %d of the solved set escapes its own envelope", i)
		}
		if u := env.Utilization(m); u <= 0 || u > 1+1e-9 {
			t.Errorf("matrix %d utilization %.3f outside (0, 1]", i, u)
		}
	}

	// Inflate one pair past its envelope: must escape, with the pair
	// reported and utilization above 1.
	esc := ms[0].Clone()
	var worst hose.Pair
	var worstD float64
	for p, dm := range esc.Demand {
		if dm > worstD {
			worst, worstD = p, dm
		}
	}
	esc.Set(worst, env.Demand[worst.Canonical()]*1.5)
	if env.Contains(esc) {
		t.Fatal("inflated matrix still contained")
	}
	escapes := env.Escapes(esc)
	if len(escapes) == 0 || escapes[0].Pair != worst.Canonical() {
		t.Fatalf("escapes = %+v, want pair %v first", escapes, worst)
	}
	if u := env.Utilization(esc); u < 1.5-1e-9 {
		t.Errorf("escaped utilization %.3f, want ≥ 1.5", u)
	}

	// Demand on a pair with no envelope capacity is an infinite fill.
	off := traffic.NewMatrix(dep.Region.Map.DCs())
	zero := &Envelope{Demand: map[hose.Pair]float64{}}
	off.Set(hose.Pair{A: dep.Region.Map.DCs()[0], B: dep.Region.Map.DCs()[1]}, 1)
	if u := zero.Utilization(off); !math.IsInf(u, 1) {
		t.Errorf("zero-capacity utilization = %v, want +Inf", u)
	}
}

func TestMaxEnvelope(t *testing.T) {
	dcs := []int{2, 3, 4}
	a := traffic.NewMatrix(dcs)
	a.Set(hose.Pair{A: 2, B: 3}, 10)
	a.Set(hose.Pair{A: 3, B: 4}, 5)
	b := traffic.NewMatrix(dcs)
	b.Set(hose.Pair{A: 3, B: 2}, 7) // non-canonical order on purpose
	b.Set(hose.Pair{A: 2, B: 4}, 3)
	raw := maxEnvelope([]*traffic.Matrix{a, b})
	want := map[hose.Pair]float64{
		{A: 2, B: 3}: 10,
		{A: 3, B: 4}: 5,
		{A: 2, B: 4}: 3,
	}
	if len(raw) != len(want) {
		t.Fatalf("raw = %v, want %v", raw, want)
	}
	for p, v := range want {
		if raw[p] != v {
			t.Errorf("raw[%v] = %v, want %v", p, raw[p], v)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	dep := toyDep(t)
	ms := evolve(dep, 1, 2, 0.5, 0.2)
	if _, err := solve(dep, ms, 0.5); err == nil {
		t.Error("solve accepted headroom 0.5")
	}
	if _, err := solve(dep, nil, DefaultConfig().Headroom); err == nil {
		t.Error("solve accepted an empty matrix set")
	}
	if _, err := solve(nil, ms, DefaultConfig().Headroom); err == nil {
		t.Error("solve accepted a nil deployment")
	}
}

func TestProvisioned(t *testing.T) {
	alloc := core.Allocation{
		Fibers:   map[hose.Pair]int{{A: 0, B: 1}: 2},
		Residual: map[hose.Pair]int{{A: 0, B: 1}: 13, {A: 0, B: 2}: 5},
	}
	if got := provisioned(alloc, 40); got != 2*40+13+5 {
		t.Errorf("Provisioned = %v, want %v", got, 2*40+13+5)
	}
}

// TestVerifyHubWalkResidualMultiplicity pins Verify's residual rule to
// the planner's on a centralized plan whose DC-hub-DC walks cross some
// duct twice: residual need is crossings with multiplicity, the quantity
// Algorithm 1 provisioned as ResidualPairs, not the number of distinct
// pairs. With every pair loaded and every duct's residual fiber
// understated by one, each duct must be reported with need equal to the
// planner's own figure.
func TestVerifyHubWalkResidualMultiplicity(t *testing.T) {
	m, err := fibermap.Spec{Seed: 2, DCs: 5}.Map()
	if err != nil {
		t.Fatal(err)
	}
	r := core.UniformRegion(m, 8, 40)
	h1, h2 := fibermap.ChooseHubs(m, 5)
	pl, err := plan.New(plan.Input{Map: m, Capacity: r.Capacity, Lambda: r.Lambda, MaxFailures: 0, ViaHubs: []int{h1, h2}})
	if err != nil {
		t.Fatal(err)
	}

	planned := make(map[int]int) // duct -> the planner's ResidualPairs
	distinct := make(map[int]int)
	for _, info := range pl.Paths {
		seen := make(map[int]bool)
		for _, d := range info.Ducts {
			if !seen[d] {
				seen[d] = true
				distinct[d]++
			}
		}
	}
	doubled := 0
	for id, du := range pl.Ducts {
		planned[id] = du.ResidualPairs
		if du.ResidualPairs > distinct[id] {
			doubled++
		}
		du.ResidualPairs-- // understate what is leased
	}
	if doubled == 0 {
		t.Fatal("no duct is crossed twice by one walk; the case does not cover multiplicity")
	}

	full := traffic.NewMatrix(m.DCs())
	for _, p := range full.Pairs() {
		full.Set(p, 1)
	}
	dep := &core.Deployment{Region: r, Plan: pl}
	v := verify(dep, core.Allocation{}, []*traffic.Matrix{full})[0]
	if len(v.ResidualOverloads) != len(planned) {
		t.Fatalf("%d residual overloads, want one per planned duct (%d): %+v",
			len(v.ResidualOverloads), len(planned), v.ResidualOverloads)
	}
	for _, o := range v.ResidualOverloads {
		if o.Need != planned[o.Duct] || o.Have != planned[o.Duct]-1 {
			t.Errorf("duct %d: residual need %d have %d, planner provisioned %d",
				o.Duct, o.Need, o.Have, planned[o.Duct])
		}
	}
}

// TestSolveHeadroomIsReproducible: the hose-feasible headroom is a ratio
// of per-DC aggregates summed in pair order, so twenty solves over one
// seeded window land on one headroom, to the last bit (summing the
// envelope in map order gave several on a region of ten DCs).
func TestSolveHeadroomIsReproducible(t *testing.T) {
	m, err := fibermap.Spec{Seed: 0, DCs: 10}.Map()
	if err != nil {
		t.Fatal(err)
	}
	dep, err := core.Plan(core.UniformRegion(m, 10, 40), core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ms := evolve(dep, 3, 4, 0.6, 0.2)
	var first float64
	for i := 0; i < 20; i++ {
		res, err := solve(dep, ms, 5.0) // far above feasible: Headroom is the aggregates' bound
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = res.Headroom
		} else if res.Headroom != first {
			t.Fatalf("solve %d: headroom %v, the first was %v", i, res.Headroom, first)
		}
	}
}
