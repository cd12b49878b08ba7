package core

import (
	"reflect"
	"testing"

	"iris/internal/traffic"
)

// TestPerShiftPairsAreTheAdoptedDiff: however PerShift answers a shift —
// a full solve, an incremental delta, a delta that moves no circuit, the
// shift after one the devices rejected, a fallback — its Pairs is
// DiffAlloc from the allocation last adopted, and Changed says that diff
// is not empty.
func TestPerShiftPairsAreTheAdoptedDiff(t *testing.T) {
	dep := genDeployment(t, 1, 8)
	base := traffic.NewMatrix(dep.Region.Map.DCs())
	pairs := base.Pairs()
	for i, p := range pairs {
		base.Set(p, float64(5+(7*i)%20))
	}

	var (
		pol     PerShift
		adopted Allocation
		cur     = base
	)
	// with is the adopted demand with the given pairs (by index) moved.
	with := func(set map[int]float64) *traffic.Matrix {
		tm := cur.Clone()
		for i, v := range set {
			tm.Set(pairs[i], v)
		}
		return tm
	}
	shift := func(name string, tm *traffic.Matrix, incremental, changed bool) Outcome {
		t.Helper()
		out, err := pol.Shift(dep, tm, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want := DiffAlloc(adopted, out.Alloc); !reflect.DeepEqual(out.Pairs, want) {
			t.Errorf("%s: Pairs = %+v, want the adopted diff %+v", name, out.Pairs, want)
		}
		if out.Stats.Incremental != incremental || out.Changed != changed {
			t.Errorf("%s: incremental %v changed %v, want %v and %v",
				name, out.Stats.Incremental, out.Changed, incremental, changed)
		}
		return out
	}
	adopt := func(out Outcome, tm *traffic.Matrix) {
		pol.Adopt()
		adopted, cur = out.Alloc, tm
	}

	adopt(shift("first solve", base, false, true), base)

	tm := with(map[int]float64{0: 85, 3: 0})
	out := shift("incremental", tm, true, true)
	if len(out.Pairs) != 2 {
		t.Errorf("incremental: %d pair deltas, want the 2 moved pairs", len(out.Pairs))
	}
	adopt(out, tm)

	// 12 → 11.5 wavelengths is still one residual fiber at 12.
	tm = with(map[int]float64{1: 11.5})
	out = shift("no circuit moves", tm, true, false)
	if out.Stats.PairsResolved != 1 {
		t.Errorf("no circuit moves: %d pairs resolved, want the 1 whose demand moved", out.Stats.PairsResolved)
	}
	adopt(out, tm)

	// The devices reject this one: roll it back and adopt nothing.
	out = shift("rejected", with(map[int]float64{2: 60}), true, true)
	out.Undo.Rollback()

	tm = with(map[int]float64{4: 50})
	out = shift("after a rejection", tm, true, true)
	if len(out.Pairs) != 1 || out.Pairs[0].Pair() != pairs[4] {
		t.Errorf("after a rejection: Pairs = %+v, want pair %v alone", out.Pairs, pairs[4])
	}
	adopt(out, tm)

	all := make(map[int]float64, len(pairs))
	for i := range pairs {
		all[i] = cur.Get(pairs[i]) + 3
	}
	tm = with(all)
	adopt(shift("fallback", tm, false, true), tm)
}
