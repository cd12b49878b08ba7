package core

import (
	"reflect"
	"testing"

	"iris/internal/hose"
	"iris/internal/plan"
	"iris/internal/traffic"
)

func allocOf(entries ...[4]int) Allocation {
	a := Allocation{Fibers: map[hose.Pair]int{}, Residual: map[hose.Pair]int{}}
	for _, e := range entries {
		p := hose.Pair{A: e[0], B: e[1]}.Canonical()
		if e[2] != 0 {
			a.Fibers[p] = e[2]
		}
		if e[3] != 0 {
			a.Residual[p] = e[3]
		}
	}
	return a
}

func TestDiffAllocReportsResidualOnlyChanges(t *testing.T) {
	oldA := allocOf([4]int{2, 4, 1, 10})
	newA := allocOf([4]int{2, 4, 1, 25})
	got := DiffAlloc(oldA, newA)
	want := []PairDelta{{A: 2, B: 4, OldFibers: 1, NewFibers: 1, OldResidual: 10, NewResidual: 25}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("DiffAlloc = %+v, want %+v", got, want)
	}
}

func TestDiffAllocDeterministicOrderAndOmitsUnchanged(t *testing.T) {
	oldA := allocOf([4]int{2, 3, 1, 0}, [4]int{4, 5, 2, 7}, [4]int{2, 5, 3, 3})
	newA := allocOf([4]int{2, 3, 2, 0}, [4]int{4, 5, 2, 7}, [4]int{2, 5, 0, 1})
	got := DiffAlloc(oldA, newA)
	if len(got) != 2 {
		t.Fatalf("want 2 deltas, got %+v", got)
	}
	if got[0].Pair() != (hose.Pair{A: 2, B: 3}) || got[1].Pair() != (hose.Pair{A: 2, B: 5}) {
		t.Fatalf("order: %+v", got)
	}
	for i := 0; i < 10; i++ {
		if !reflect.DeepEqual(DiffAlloc(oldA, newA), got) {
			t.Fatal("DiffAlloc is not deterministic")
		}
	}
}

func TestDiffAllocCoversDrainedAndNewPairs(t *testing.T) {
	oldA := allocOf([4]int{2, 3, 1, 5})
	newA := allocOf([4]int{4, 5, 0, 9})
	got := DiffAlloc(oldA, newA)
	want := []PairDelta{
		{A: 2, B: 3, OldFibers: 1, OldResidual: 5},
		{A: 4, B: 5, NewResidual: 9},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("DiffAlloc = %+v, want %+v", got, want)
	}
}

// TestApplyDeltasComposes is the property the history lake depends on:
// replaying each step's deltas in order from an empty allocation
// reproduces the final allocation exactly.
func TestApplyDeltasComposes(t *testing.T) {
	steps := []Allocation{
		allocOf([4]int{2, 3, 1, 5}),
		allocOf([4]int{2, 3, 2, 0}, [4]int{2, 4, 0, 9}),
		allocOf([4]int{2, 4, 1, 1}),
		allocOf(), // full drain
		allocOf([4]int{3, 5, 4, 2}),
	}
	replayed := allocOf()
	prev := allocOf()
	for i, cur := range steps {
		replayed = ApplyDeltas(replayed, DiffAlloc(prev, cur))
		if !replayed.Equal(cur) {
			t.Fatalf("step %d: replayed %+v != live %+v", i, replayed, cur)
		}
		prev = cur
	}
}

// TestApplyDeltasOverlappingWindows pins the composition semantics the
// history lake depends on when several control-plane paths touch the
// SAME pair in overlapping record windows: a converge grows 2-3, a
// repair shrinks it and spills onto residual, a chaos cycle drains it
// entirely and brings up a different pair. Because PairDelta carries
// absolute after-values, replaying the three windows record by record
// must land exactly on the final books, and so must one concatenated
// replay (last writer wins per pair).
func TestApplyDeltasOverlappingWindows(t *testing.T) {
	start := allocOf([4]int{2, 3, 1, 0}, [4]int{2, 4, 0, 8})
	afterConverge := allocOf([4]int{2, 3, 3, 2}, [4]int{2, 4, 0, 8})
	afterRepair := allocOf([4]int{2, 3, 1, 5}, [4]int{2, 4, 1, 0})
	afterChaos := allocOf([4]int{4, 5, 1, 3}, [4]int{2, 4, 1, 0}) // 2-3 fully drained

	windows := [][]PairDelta{
		DiffAlloc(start, afterConverge),
		DiffAlloc(afterConverge, afterRepair),
		DiffAlloc(afterRepair, afterChaos),
	}
	for i, w := range windows {
		touches := false
		for _, d := range w {
			if d.Pair() == (hose.Pair{A: 2, B: 3}) {
				touches = true
			}
		}
		if !touches {
			t.Fatalf("window %d does not touch pair 2-3; the scenario lost its overlap", i)
		}
	}

	// Record-by-record replay from the live starting books.
	got := start
	for i, w := range windows {
		got = ApplyDeltas(got, w)
		want := []Allocation{afterConverge, afterRepair, afterChaos}[i]
		if !got.Equal(want) {
			t.Fatalf("after window %d: replayed %+v != live %+v", i, got, want)
		}
	}

	// One concatenated replay: the same pair appears in all three
	// windows, and the last delta's absolute values must win.
	var concat []PairDelta
	for _, w := range windows {
		concat = append(concat, w...)
	}
	if got := ApplyDeltas(start, concat); !got.Equal(afterChaos) {
		t.Fatalf("concatenated replay %+v != final books %+v", got, afterChaos)
	}

	// From-scratch replay (empty books + every window) matches too —
	// the lake's reconstruct-from-records-alone property. The drained
	// 2-3 pair must be deleted, not zero-valued.
	scratch := ApplyDeltas(allocOf(), concat)
	if !scratch.Equal(afterChaos) {
		t.Fatalf("from-scratch replay %+v != final books %+v", scratch, afterChaos)
	}
	if _, ok := scratch.Fibers[hose.Pair{A: 2, B: 3}]; ok {
		t.Error("drained pair 2-3 left a zero-valued fibers entry")
	}
	if _, ok := scratch.Residual[hose.Pair{A: 2, B: 3}]; ok {
		t.Error("drained pair 2-3 left a zero-valued residual entry")
	}
}

// TestApplyDeltasConflictingSameWindow pins last-writer-wins inside one
// window: two deltas for the same pair (as a coalesced multi-shift step
// would produce) — the second's absolute values are the outcome.
func TestApplyDeltasConflictingSameWindow(t *testing.T) {
	got := ApplyDeltas(allocOf(), []PairDelta{
		{A: 2, B: 3, NewFibers: 5, NewResidual: 1},
		{A: 3, B: 2, NewFibers: 2, NewResidual: 7}, // same pair, non-canonical order
	})
	want := allocOf([4]int{2, 3, 2, 7})
	if !got.Equal(want) {
		t.Fatalf("conflicting deltas: got %+v, want %+v", got, want)
	}
}

func TestApplyDeltasDoesNotMutateInput(t *testing.T) {
	base := allocOf([4]int{2, 3, 1, 5})
	_ = ApplyDeltas(base, []PairDelta{{A: 2, B: 3, NewFibers: 7}})
	if base.Fibers[hose.Pair{A: 2, B: 3}] != 1 {
		t.Fatal("ApplyDeltas mutated its input")
	}
}

// TestDuctDeltasMatchesLiveBooks checks the projection against the real
// occupancy accounting: apply a demand shift through AllocateDelta, diff
// the before/after duct books, and require DuctDeltas over the pair
// deltas to say the same thing.
func TestDuctDeltasMatchesLiveBooks(t *testing.T) {
	region, r := toyRegion()
	dep, err := Plan(region, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := traffic.NewMatrix(region.Map.DCs())
	m.Set(hose.Pair{A: r.DC1, B: r.DC3}, 100) // 2 fibers + residual, crosses the hub duct
	m.Set(hose.Pair{A: r.DC1, B: r.DC2}, 80)  // 2 fibers, hub-local
	st, err := dep.AllocateState(m)
	if err != nil {
		t.Fatal(err)
	}
	before := st.Snapshot()
	booksBefore := map[int][2]int{}
	for duct, f := range st.fibersByDuct {
		booksBefore[duct] = [2]int{f, st.residualByDuct[duct]}
	}

	delta := traffic.Delta{Changes: map[hose.Pair]float64{
		hose.Pair{A: r.DC1, B: r.DC3}.Canonical(): 40, // 1 fiber, no residual
		hose.Pair{A: r.DC2, B: r.DC4}.Canonical(): 10, // new residual-only pair
	}}
	if _, _, err := dep.AllocateDelta(st, delta); err != nil {
		t.Fatal(err)
	}
	after := st.Snapshot()

	got := dep.DuctDeltas(DiffAlloc(before, after))
	var want []DuctDelta
	seen := map[int]bool{}
	for duct := range st.fibersByDuct {
		seen[duct] = true
	}
	for duct := range st.residualByDuct {
		seen[duct] = true
	}
	for duct := range booksBefore {
		seen[duct] = true
	}
	for duct := range seen {
		dd := DuctDelta{
			Duct:     duct,
			Fibers:   st.fibersByDuct[duct] - booksBefore[duct][0],
			Residual: st.residualByDuct[duct] - booksBefore[duct][1],
		}
		if dd.Fibers != 0 || dd.Residual != 0 {
			want = append(want, dd)
		}
	}
	if len(want) == 0 {
		t.Fatal("test shift produced no duct changes; pick a bigger delta")
	}
	sortDuctDeltas(want)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("DuctDeltas = %+v, live books say %+v", got, want)
	}
}

func sortDuctDeltas(s []DuctDelta) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j].Duct < s[j-1].Duct; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func TestDuctDeltasSkipsUnplannedPairs(t *testing.T) {
	region, _ := toyRegion()
	dep, err := Plan(region, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := dep.DuctDeltas([]PairDelta{{A: 97, B: 99, NewFibers: 3}})
	if len(got) != 0 {
		t.Fatalf("unplanned pair produced duct deltas: %+v", got)
	}
}

// TestOccupancyAccounting pins the duct-occupancy projection against the
// books' accounting rules: full fibers skip cut-through ducts, residual
// counts users not wavelengths.
func TestOccupancyAccounting(t *testing.T) {
	dep := &Deployment{
		Plan: &plan.Plan{
			Paths: map[hose.Pair]*plan.PathInfo{
				{A: 2, B: 3}: {Ducts: []int{0, 4, 1}, CutDucts: []int{4}},
				{A: 2, B: 4}: {Ducts: []int{0, 2}},
			},
		},
	}
	alloc := Allocation{
		Fibers: map[hose.Pair]int{
			{A: 2, B: 3}: 2,
			{A: 2, B: 4}: 1,
		},
		Residual: map[hose.Pair]int{
			{A: 2, B: 3}: 5, // 5 wavelengths = 1 user per duct
		},
	}
	fibers, residual := Occupancy(dep, alloc)
	if fibers[0] != 3 || fibers[1] != 2 || fibers[2] != 1 {
		t.Fatalf("fiber occupancy wrong: %v", fibers)
	}
	if fibers[4] != 0 {
		t.Fatalf("cut-through duct 4 counted full fibers: %v", fibers)
	}
	if residual[0] != 1 || residual[4] != 1 || residual[1] != 1 || residual[2] != 0 {
		t.Fatalf("residual occupancy wrong: %v", residual)
	}
}
