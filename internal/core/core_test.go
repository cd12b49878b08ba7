package core

import (
	"math/rand"
	"strings"
	"testing"

	"iris/internal/fibermap"
	"iris/internal/hose"
	"iris/internal/traffic"
)

func toyRegion() (Region, *fibermap.ToyRegion) {
	r := fibermap.Toy()
	return UniformRegion(r.Map, 10, 40), r
}

func TestPlanToyDeployment(t *testing.T) {
	region, _ := toyRegion()
	dep, err := Plan(region, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if dep.Plan == nil {
		t.Fatal("nil plan")
	}
	ratio := dep.EPS.Total() / dep.Iris.Total()
	if ratio < 2.5 || ratio > 2.9 {
		t.Errorf("EPS/Iris = %.2f, want ≈2.7 (§3.4)", ratio)
	}
	if dep.Hybrid.Total() > dep.Iris.Total() {
		t.Errorf("hybrid %v should not exceed iris %v", dep.Hybrid.Total(), dep.Iris.Total())
	}
}

func TestPlanPropagatesErrors(t *testing.T) {
	if _, err := Plan(Region{}, Options{}); err == nil {
		t.Error("expected error for empty region")
	}
}

func TestAllocateExactFibers(t *testing.T) {
	region, r := toyRegion()
	dep, err := Plan(region, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := traffic.NewMatrix(region.Map.DCs())
	// 100 wavelengths = 2 full fibers (λ=40) + 20 residual wavelengths.
	m.Set(hose.Pair{A: r.DC1, B: r.DC3}, 100)
	// Exactly 2 fibers, no residual.
	m.Set(hose.Pair{A: r.DC1, B: r.DC2}, 80)

	alloc, err := dep.Allocate(m)
	if err != nil {
		t.Fatal(err)
	}
	p13 := hose.Pair{A: r.DC1, B: r.DC3}
	if alloc.FibersFor(p13) != 2 || alloc.ResidualFor(p13) != 20 {
		t.Errorf("DC1-DC3: %d fibers + %d residual, want 2 + 20",
			alloc.FibersFor(p13), alloc.ResidualFor(p13))
	}
	p12 := hose.Pair{A: r.DC1, B: r.DC2}
	if alloc.FibersFor(p12) != 2 || alloc.ResidualFor(p12) != 0 {
		t.Errorf("DC1-DC2: %d fibers + %d residual, want 2 + 0",
			alloc.FibersFor(p12), alloc.ResidualFor(p12))
	}
}

func TestAllocateRejectsHoseViolation(t *testing.T) {
	region, r := toyRegion()
	dep, err := Plan(region, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := traffic.NewMatrix(region.Map.DCs())
	// DC1's capacity is 10×40 = 400 wavelengths; 300+300 = 600 exceeds it.
	m.Set(hose.Pair{A: r.DC1, B: r.DC2}, 300)
	m.Set(hose.Pair{A: r.DC1, B: r.DC3}, 300)
	if _, err := dep.Allocate(m); err == nil || !strings.Contains(err.Error(), "exceeds capacity") {
		t.Errorf("err = %v, want hose violation", err)
	}
}

func TestAllocateWorstCaseMatrixFits(t *testing.T) {
	// Property: any hose-feasible matrix must be allocatable on the
	// provisioned plan — the §4.3 provisioning guarantee.
	region, _ := toyRegion()
	dep, err := Plan(region, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	dcs := region.Map.DCs()
	caps := region.HoseCaps()
	for trial := 0; trial < 200; trial++ {
		m := traffic.NewMatrix(dcs)
		for _, p := range m.Pairs() {
			m.Set(p, float64(rng.Intn(400)))
		}
		m.ClampToHose(caps)
		// Integerize demands (wavelengths).
		for _, p := range m.Pairs() {
			m.Set(p, float64(int(m.Get(p))))
		}
		if _, err := dep.Allocate(m); err != nil {
			t.Fatalf("trial %d: hose-feasible matrix rejected: %v", trial, err)
		}
	}
}

func TestDiff(t *testing.T) {
	p12 := hose.Pair{A: 1, B: 2}
	p13 := hose.Pair{A: 1, B: 3}
	p23 := hose.Pair{A: 2, B: 3}
	oldA := Allocation{
		Fibers:   map[hose.Pair]int{p12: 4, p13: 2, p23: 1},
		Residual: map[hose.Pair]int{p12: 0, p13: 10, p23: 0},
	}
	newA := Allocation{
		Fibers:   map[hose.Pair]int{p12: 4, p13: 3, p23: 0},
		Residual: map[hose.Pair]int{p12: 5, p13: 0, p23: 39},
	}
	moves := Diff(oldA, newA)
	if len(moves) != 2 {
		t.Fatalf("moves = %+v, want 2 (p12 residual-only change is free)", moves)
	}
	// Growth attaches idle fibers: no live capacity is affected.
	if moves[0].Pair != p13 || moves[0].FibersDelta != 1 || moves[0].FracAffected != 0 {
		t.Errorf("move[0] = %+v", moves[0])
	}
	// Shrink drains the torn-down circuit: its share of capacity dims.
	if moves[1].Pair != p23 || moves[1].FibersDelta != -1 || moves[1].FracAffected != 1 {
		t.Errorf("move[1] = %+v", moves[1])
	}
}

func TestDiffFromEmpty(t *testing.T) {
	p := hose.Pair{A: 1, B: 2}
	moves := Diff(Allocation{}, Allocation{Fibers: map[hose.Pair]int{p: 3}})
	if len(moves) != 1 || moves[0].FibersDelta != 3 || moves[0].FracAffected != 0 {
		t.Errorf("moves = %+v (initial establishment drains nothing)", moves)
	}
}

func TestGeneratedRegionEndToEnd(t *testing.T) {
	m, err := fibermap.Spec{Seed: 5, DCs: 6}.Map()
	if err != nil {
		t.Fatal(err)
	}
	dep, err := Plan(UniformRegion(m, 8, 40), Options{MaxFailures: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Fig. 12 shape on a single region: EPS costs several times Iris.
	ratio := dep.EPS.Total() / dep.Iris.Total()
	if ratio < 1.5 {
		t.Errorf("EPS/Iris = %.2f; expected a clear Iris advantage", ratio)
	}
	// A moderate uniform matrix allocates cleanly.
	tm := traffic.NewMatrix(m.DCs())
	for _, p := range tm.Pairs() {
		tm.Set(p, 40)
	}
	if _, err := dep.Allocate(tm); err != nil {
		t.Errorf("uniform matrix rejected: %v", err)
	}
}

func TestAllocateRejectsUnderProvisionedDuct(t *testing.T) {
	// White-box: damage the plan to simulate a stale deployment whose
	// ducts no longer cover the demand; Allocate must refuse rather than
	// oversubscribe fibers.
	region, r := toyRegion()
	dep, err := Plan(region, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := traffic.NewMatrix(region.Map.DCs())
	m.Set(hose.Pair{A: r.DC1, B: r.DC2}, 80) // 2 full fibers via L1, L2

	var accessDuct int
	info := dep.Plan.Paths[hose.Pair{A: r.DC1, B: r.DC2}]
	accessDuct = info.Ducts[0]

	saved := dep.Plan.Ducts[accessDuct].BasePairs
	dep.Plan.Ducts[accessDuct].BasePairs = 1
	if _, err := dep.Allocate(m); err == nil || !strings.Contains(err.Error(), "full fibers") {
		t.Errorf("err = %v, want under-provisioned duct rejection", err)
	}
	dep.Plan.Ducts[accessDuct].BasePairs = saved

	savedRes := dep.Plan.Ducts[accessDuct].ResidualPairs
	dep.Plan.Ducts[accessDuct].ResidualPairs = 0
	m.Set(hose.Pair{A: r.DC1, B: r.DC2}, 30) // residual-only demand
	if _, err := dep.Allocate(m); err == nil || !strings.Contains(err.Error(), "residual") {
		t.Errorf("err = %v, want residual rejection", err)
	}
	dep.Plan.Ducts[accessDuct].ResidualPairs = savedRes
}

func TestAllocateRejectsUnplannedPair(t *testing.T) {
	region, r := toyRegion()
	dep, err := Plan(region, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Remove a pair's path to simulate an out-of-date plan.
	p := hose.Pair{A: r.DC1, B: r.DC4}
	delete(dep.Plan.Paths, p)
	m := traffic.NewMatrix(region.Map.DCs())
	m.Set(p, 10)
	if _, err := dep.Allocate(m); err == nil || !strings.Contains(err.Error(), "no planned path") {
		t.Errorf("err = %v, want unplanned-pair rejection", err)
	}
}

func TestAllocationEqual(t *testing.T) {
	p := hose.Pair{A: 1, B: 2}
	q := hose.Pair{A: 1, B: 3}
	a := Allocation{
		Fibers:   map[hose.Pair]int{p: 2},
		Residual: map[hose.Pair]int{q: 7},
	}
	b := Allocation{
		// An explicit zero entry is the same as an absent one.
		Fibers:   map[hose.Pair]int{p: 2, q: 0},
		Residual: map[hose.Pair]int{q: 7},
	}
	if !a.Equal(b) || !b.Equal(a) {
		t.Errorf("allocations with equivalent entries compare unequal")
	}
	b.Fibers[q] = 1
	if a.Equal(b) {
		t.Errorf("allocations with different fibers compare equal")
	}
	delete(b.Fibers, q)
	b.Residual[p] = 3
	if a.Equal(b) {
		t.Errorf("allocations with different residuals compare equal")
	}
}
