package robust

import (
	"reflect"
	"testing"

	"iris/internal/core"
	"iris/internal/traffic"
)

// TestPolicyWindowEvictsOldest: the envelope is solved over the Window
// most recent shifts, oldest first.
func TestPolicyWindowEvictsOldest(t *testing.T) {
	dep := toyDep(t)
	ms := evolve(dep, 1, 5, 0.5, 0.2)
	p := NewPolicy(Config{Window: 3})
	for i, m := range ms {
		if _, err := p.Shift(dep, m, i); err != nil {
			t.Fatal(err)
		}
		p.Adopt()
	}
	if len(p.win) != 3 {
		t.Fatalf("window holds %d shifts after 5 into 3, want 3", len(p.win))
	}
	for i, m := range ms[2:] {
		if !sameDemand(p.win[i], m) {
			t.Errorf("window[%d] is not shift %d", i, i+2)
		}
	}
}

// TestPolicyWindowMinimumCapacity: a window below one shift is the
// default 4, and a window of one keeps only the latest shift.
func TestPolicyWindowMinimumCapacity(t *testing.T) {
	for _, w := range []int{0, -2} {
		if got := NewPolicy(Config{Window: w}).cfg.Window; got != 4 {
			t.Errorf("window %d = %d, want the default 4", w, got)
		}
	}
	dep := toyDep(t)
	ms := evolve(dep, 1, 2, 0.5, 0.2)
	p := NewPolicy(Config{Window: 1})
	for i, m := range ms {
		if _, err := p.Shift(dep, m, i); err != nil {
			t.Fatal(err)
		}
		p.Adopt()
	}
	if len(p.win) != 1 || !sameDemand(p.win[0], ms[1]) {
		t.Fatalf("window of one holds %d shifts, want only the latest", len(p.win))
	}
}

// TestPolicyWindowClonesShifts: the caller may keep mutating the matrix
// it handed in (the evolver steps its matrix in place).
func TestPolicyWindowClonesShifts(t *testing.T) {
	dep := toyDep(t)
	m := evolve(dep, 1, 1, 0.5, 0.2)[0]
	p := NewPolicy(Config{})
	if _, err := p.Shift(dep, m, 0); err != nil {
		t.Fatal(err)
	}
	pair := m.Pairs()[0]
	before := m.Get(pair)
	m.Set(pair, before+1)
	if got := p.win[0].Get(pair); got != before {
		t.Errorf("window saw the caller's mutation: demand %v, want %v", got, before)
	}
}

func sameDemand(a, b *traffic.Matrix) bool {
	if len(a.Demand) != len(b.Demand) {
		return false
	}
	for p, d := range a.Demand {
		if b.Demand[p] != d {
			return false
		}
	}
	return true
}

// TestPolicyPairsAreTheAdoptedDiff: however the envelope rule answers a
// shift — its first solve, an absorbed shift, an escape whose re-solve
// lands on the same circuits, an escape that moves circuits — the
// outcome's Pairs is core.DiffAlloc from the allocation last adopted, and
// Changed says that diff is not empty.
func TestPolicyPairsAreTheAdoptedDiff(t *testing.T) {
	dep := toyDep(t)
	dcs := dep.Region.Map.DCs()
	m0 := traffic.NewMatrix(dcs)
	pairs := m0.Pairs()
	for _, p := range pairs {
		m0.Set(p, 3.6) // ×1.15 headroom: 4.14, five wavelengths
	}
	p := NewPolicy(Config{Window: 1})
	var adopted core.Allocation
	shift := func(name string, tm *traffic.Matrix, step int, absorbed, changed bool) core.Outcome {
		t.Helper()
		out, err := p.Shift(dep, tm, step)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want := core.DiffAlloc(adopted, out.Alloc); !reflect.DeepEqual(out.Pairs, want) {
			t.Errorf("%s: Pairs = %+v, want the adopted diff %+v", name, out.Pairs, want)
		}
		if p.Last().Absorbed != absorbed || out.Changed != changed {
			t.Errorf("%s: absorbed %v changed %v, want %v and %v",
				name, p.Last().Absorbed, out.Changed, absorbed, changed)
		}
		p.Adopt()
		adopted = out.Alloc
		return out
	}

	shift("first solve", m0, 0, false, true)
	m1 := m0.Clone()
	m1.Set(pairs[0], 4)
	shift("absorbed", m1, 1, true, false)
	// 4.2 escapes the 4.14 envelope; ×1.15 it is 4.83, still five.
	m2 := m0.Clone()
	m2.Set(pairs[0], 4.2)
	shift("escape onto the same circuits", m2, 2, false, false)
	m3 := m0.Clone()
	m3.Set(pairs[0], 100)
	if out := shift("escape that moves circuits", m3, 3, false, true); len(out.Pairs) == 0 {
		t.Error("escape that moves circuits: no pair deltas")
	}
}
