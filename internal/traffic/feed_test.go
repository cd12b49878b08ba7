package traffic

import (
	"testing"

	"iris/internal/hose"
)

func TestEvolverIsDeterministicPerSeed(t *testing.T) {
	base := NewMatrix([]int{1, 2, 3})
	base.Set(hose.Pair{A: 1, B: 2}, 30)
	base.Set(hose.Pair{A: 2, B: 3}, 5)
	caps := map[int]float64{1: 100, 2: 100, 3: 100}
	cp := ChangeProcess{Bound: 0.4, Caps: caps, Util: 0.9}

	run := func() []float64 {
		e := NewEvolver(7, base, cp)
		var vals []float64
		for i := 0; i < 5; i++ {
			m, ok := e.Next()
			if !ok {
				t.Fatal("evolver exhausted")
			}
			vals = append(vals, m.Get(hose.Pair{A: 1, B: 2}))
		}
		return vals
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("step %d differs across identically seeded evolvers: %v vs %v", i, a, b)
		}
	}
	// The first yield is the unmodified base.
	if a[0] != 30 {
		t.Errorf("first yield = %v, want base demand 30", a[0])
	}
}

func TestLimitCapsFeed(t *testing.T) {
	base := NewMatrix([]int{1, 2})
	base.Set(hose.Pair{A: 1, B: 2}, 1)
	cp := ChangeProcess{Bound: 0.1, Caps: map[int]float64{1: 10, 2: 10}, Util: 0.5}
	f := Limit(NewEvolver(1, base, cp), 3)
	for i := 0; i < 3; i++ {
		if _, ok := f.Next(); !ok {
			t.Fatalf("Next %d exhausted early", i)
		}
	}
	if _, ok := f.Next(); ok {
		t.Error("limited feed yielded a 4th matrix")
	}
}
