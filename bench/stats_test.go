package main

import (
	"reflect"
	"testing"
)

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want int // per mille; 0: no tail at all
	}{
		{9, 0}, {39, 0}, {40, 750}, {99, 750}, {100, 900}, {199, 900},
		{200, 950}, {999, 950}, {1000, 990}, {9999, 990}, {10000, 999},
	} {
		got, ok := tailPercentile(c.n)
		if ok != (c.want != 0) || got != c.want {
			t.Errorf("n=%d: got %d per mille (ok=%v), want %d", c.n, got, ok, c.want)
		}
	}
}

func TestMedianAndPercentile(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd median = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	asc := make([]float64, 200)
	for i := range asc {
		asc[i] = float64(i + 1)
	}
	if got := percentile(asc, 950); got != 190 {
		t.Errorf("p95 of 1..200 = %v, want 190 (ten samples beyond)", got)
	}
	s := summarize(asc)
	if s.N != 200 || s.P50 != 100.5 || s.TailPM != 950 || s.Tail != 190 {
		t.Errorf("summarize(1..200) = %+v", s)
	}
	if median(nil) != 0 || percentile(nil, 500) != 0 {
		t.Error("empty samples must summarise to 0")
	}
}

func TestSelfTimeIsDurationMinusChildCoverage(t *testing.T) {
	spans := []span{
		{ID: 0, Name: "tick", StartNS: 0, EndNS: 100, Parent: -1, Op: 1},
		{ID: 1, Name: "a", StartNS: 10, EndNS: 30, Parent: 0, Op: 1},
		{ID: 2, Name: "b", StartNS: 20, EndNS: 50, Parent: 0, Op: 1}, // overlaps a: counted once
		{ID: 3, Name: "a", StartNS: 60, EndNS: 70, Parent: 0, Op: 1},
		{ID: 4, Name: "c", StartNS: 62, EndNS: 66, Parent: 3, Op: 1},
		{ID: 5, Name: "late", StartNS: 90, EndNS: 130, Parent: 0, Op: 1}, // clipped to its parent
		{ID: 6, Name: "tick", StartNS: 200, EndNS: 240, Parent: -1, Op: 2},
		{ID: 7, Name: "a", StartNS: 205, EndNS: 215, Parent: 6, Op: 2},
	}
	want := []int64{100 - (40 + 10 + 10), 20, 30, 10 - 4, 4, 40, 30, 10}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	byOp := layerSelfByOp(spans)
	if got, want := byOp["a"], []float64{26, 10}; !reflect.DeepEqual(got, want) {
		t.Errorf(`layer "a" per operation = %v, want %v`, got, want)
	}
	if got, want := byOp["tick"], []float64{40, 30}; !reflect.DeepEqual(got, want) {
		t.Errorf(`layer "tick" per operation = %v, want %v`, got, want)
	}
}

func TestRecorderDiscardKeepsIDsDense(t *testing.T) {
	rec := newRecorder()
	rec.nextOp()
	root := rec.begin("tick", -1)
	rec.end(rec.begin("a", root))
	rec.discardFrom(root)
	rec.nextOp()
	root = rec.begin("tick", -1)
	child := rec.begin("a", root)
	rec.end(child)
	rec.end(root)
	for i, s := range rec.spans {
		if s.ID != i {
			t.Fatalf("span %d has ID %d", i, s.ID)
		}
	}
	if len(rec.spans) != 2 || rec.spans[child].Parent != root || rec.spans[child].Op != 2 {
		t.Errorf("spans after discard: %+v", rec.spans)
	}
	var none *recorder
	none.nextOp()
	none.end(none.begin("x", -1)) // a nil recorder records nothing and must not panic
}

// TestReferenceScale: a run whose reference kernel took twice its nominal
// time halves every timing; a run without a reference scales nothing.
func TestReferenceScale(t *testing.T) {
	var none *reference
	none.sample()
	if got := none.scale(); got != 1 {
		t.Errorf("nil reference scales by %v, want 1", got)
	}
	r := newReference()
	if got := r.scale(); got != 1 {
		t.Errorf("unsampled reference scales by %v, want 1", got)
	}
	r.sample()
	r.sample() // within refEvery of the last: no second sample
	if len(r.us) != 1 || !(r.us[0] > 0) {
		t.Fatalf("samples after two calls: %v, want one positive time", r.us)
	}
	slow := 2 * usOf(refNominal)
	r.us = []float64{slow, slow / 4, slow, slow * 8, slow}
	if got := r.scale(); got != 0.5 {
		t.Errorf("scale with a median of twice nominal = %v, want 0.5", got)
	}
}
