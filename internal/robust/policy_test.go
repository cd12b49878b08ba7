package robust

import (
	"testing"

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
