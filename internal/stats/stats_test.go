package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("Mean = %v", got)
	}
	if !math.IsNaN(Mean(nil)) {
		t.Error("Mean(nil) should be NaN")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	tests := []struct{ p, want float64 }{
		{0, 10}, {25, 20}, {50, 30}, {75, 40}, {100, 50}, {90, 46},
	}
	for _, tt := range tests {
		if got := Percentile(xs, tt.p); math.Abs(got-tt.want) > 1e-9 {
			t.Errorf("Percentile(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
	if got := Percentile([]float64{7}, 99); got != 7 {
		t.Errorf("single-element percentile = %v", got)
	}
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Error("Percentile(nil) should be NaN")
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Error("input mutated")
	}
}

func TestPercentilePanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Percentile([]float64{1}, 101)
}

func TestMedianMax(t *testing.T) {
	if got := Median([]float64{5, 1, 9}); got != 5 {
		t.Errorf("Median = %v", got)
	}
	if got := Max([]float64{5, 1, 9}); got != 9 {
		t.Errorf("Max = %v", got)
	}
	if !math.IsNaN(Max(nil)) {
		t.Error("Max(nil) should be NaN")
	}
}

func TestFractionAbove(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if got := FractionAbove(xs, 2); got != 0.5 {
		t.Errorf("FractionAbove = %v, want 0.5", got)
	}
	if got := FractionAbove(xs, 0); got != 1 {
		t.Errorf("FractionAbove = %v, want 1", got)
	}
	if !math.IsNaN(FractionAbove(nil, 1)) {
		t.Error("FractionAbove(nil) should be NaN")
	}
}

func TestCDF(t *testing.T) {
	xs := []float64{3, 1, 3, 2}
	for _, want := range []struct{ x, p float64 }{{1, 0.25}, {2, 0.5}, {3, 1}} {
		if got := CDFAt(xs, want.x); got != want.p {
			t.Errorf("CDFAt(%v) = %v, want %v", want.x, got, want.p)
		}
	}
}

func TestCDFAt(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if got := CDFAt(xs, 2.5); got != 0.5 {
		t.Errorf("CDFAt = %v", got)
	}
	if got := CDFAt(xs, 0); got != 0 {
		t.Errorf("CDFAt = %v", got)
	}
	if !math.IsNaN(CDFAt(nil, 1)) {
		t.Error("CDFAt(nil) should be NaN")
	}
}

func TestCDFMonotoneProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		xs := make([]float64, 1+rng.Intn(100))
		for i := range xs {
			xs[i] = rng.NormFloat64() * 10
		}
		sort.Float64s(xs)
		for i := 1; i < len(xs); i++ {
			if CDFAt(xs, xs[i]) < CDFAt(xs, xs[i-1]) {
				t.Fatalf("CDF decreases between %v and %v", xs[i-1], xs[i])
			}
		}
		if CDFAt(xs, xs[len(xs)-1]) != 1 {
			t.Fatalf("CDF must end at 1, got %v", CDFAt(xs, xs[len(xs)-1]))
		}
		// Percentile and CDF are inverse-consistent up to interpolation:
		// the interpolated percentile sits between two order statistics,
		// so the CDF there can undershoot by at most one sample.
		slack := 1 / float64(len(xs))
		for _, p := range []float64{10, 50, 90} {
			v := Percentile(xs, p)
			if CDFAt(xs, v) < p/100-slack-1e-9 {
				t.Fatalf("CDFAt(Percentile(%v)) = %v, want ≥ %v", p, CDFAt(xs, v), p/100-slack)
			}
		}
	}
}
