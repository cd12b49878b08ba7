package traffic

import (
	"testing"

	"iris/internal/hose"
	"iris/internal/trace"
)

func TestForecastDeterministicAndNonMutating(t *testing.T) {
	base := NewMatrix([]int{1, 2, 3})
	base.Set(hose.Pair{A: 1, B: 2}, 30)
	base.Set(hose.Pair{A: 2, B: 3}, 5)
	caps := map[int]float64{1: 100, 2: 100, 3: 100}
	cp := ChangeProcess{Bound: 0.3, Caps: caps, Util: 0.6}

	a := Forecast(11, base, cp, 4)
	b := Forecast(11, base, cp, 4)
	if len(a) != 4 || len(b) != 4 {
		t.Fatalf("forecast lengths = %d, %d, want 4", len(a), len(b))
	}
	for i := range a {
		if !sameMatrix(a[i], b[i]) {
			t.Errorf("forecast step %d differs across identical seeds", i)
		}
	}
	if base.Get(hose.Pair{A: 1, B: 2}) != 30 || base.Get(hose.Pair{A: 2, B: 3}) != 5 {
		t.Error("Forecast mutated its base matrix")
	}
	if c := Forecast(12, base, cp, 4); sameMatrix(a[3], c[3]) {
		t.Error("different seeds produced an identical forecast tail")
	}
	if got := Forecast(11, base, cp, 0); len(got) != 0 {
		t.Errorf("zero-step forecast yielded %d matrices", len(got))
	}
}

func sameMatrix(a, b *Matrix) bool {
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

// drain pulls every matrix a source yields (bounded, in case a wrapper
// breaks exhaustion) and returns their demand maps.
func drain(s Source, max int) []*Matrix {
	var out []*Matrix
	for i := 0; i < max; i++ {
		m, ok := s.Next()
		if !ok {
			break
		}
		out = append(out, m)
	}
	return out
}

// TestEvolverCompositionDeterminism pins the contract robust mode (and
// every replayable experiment) leans on: an Evolver under the same seed
// yields an identical sequence no matter how the Limit / Traced / Shaped
// wrappers are nested around it. Each stack gets its own freshly seeded
// Evolver and Shape; only the nesting order differs.
func TestEvolverCompositionDeterminism(t *testing.T) {
	caps := map[int]float64{1: 100, 2: 100, 3: 100}
	cp := ChangeProcess{Bound: 0.3, Caps: caps, Util: 0.6}
	base := NewMatrix([]int{1, 2, 3})
	base.Set(hose.Pair{A: 1, B: 2}, 30)
	base.Set(hose.Pair{A: 2, B: 3}, 12)

	const seed, n, stepS = 21, 6, 60.0
	profile := LoadProfile{DiurnalAmp: 0.3, DiurnalPeriodS: 3600}

	newShape := func() *Shape {
		sh, err := NewShape(seed+1, profile, n*stepS)
		if err != nil {
			t.Fatal(err)
		}
		return sh
	}
	// Every nesting order of the three wrappers around a same-seed Evolver.
	stacks := map[string]func() Source{
		"limit(traced(shaped))": func() Source {
			return Limit(Traced(Shaped(NewEvolver(seed, base, cp), newShape(), stepS, caps), trace.New(64)), n)
		},
		"limit(shaped(traced))": func() Source {
			return Limit(Shaped(Traced(NewEvolver(seed, base, cp), trace.New(64)), newShape(), stepS, caps), n)
		},
		"traced(limit(shaped))": func() Source {
			return Traced(Limit(Shaped(NewEvolver(seed, base, cp), newShape(), stepS, caps), n), trace.New(64))
		},
		"traced(shaped(limit))": func() Source {
			return Traced(Shaped(Limit(NewEvolver(seed, base, cp), n), newShape(), stepS, caps), trace.New(64))
		},
		"shaped(limit(traced))": func() Source {
			return Shaped(Limit(Traced(NewEvolver(seed, base, cp), trace.New(64)), n), newShape(), stepS, caps)
		},
		"shaped(traced(limit))": func() Source {
			return Shaped(Traced(Limit(NewEvolver(seed, base, cp), n), trace.New(64)), newShape(), stepS, caps)
		},
	}

	ref := drain(stacks["limit(traced(shaped)"+")"](), n+1)
	if len(ref) != n {
		t.Fatalf("reference stack yielded %d matrices, want %d", len(ref), n)
	}
	for name, build := range stacks {
		got := drain(build(), n+1)
		if len(got) != n {
			t.Fatalf("%s yielded %d matrices, want %d", name, len(got), n)
		}
		for i := range got {
			if !sameMatrix(got[i], ref[i]) {
				t.Errorf("%s step %d diverges from reference under identical seeds", name, i)
			}
		}
		// And the same stack re-built from the same seed replays itself.
		again := drain(build(), n+1)
		for i := range again {
			if !sameMatrix(again[i], got[i]) {
				t.Errorf("%s step %d not reproducible across rebuilds", name, i)
			}
		}
	}
}
