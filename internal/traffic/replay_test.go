// The feed tests that run a finite scripted source are an external test
// package: traffictest.Replay imports traffic.
package traffic_test

import (
	"math"
	"testing"

	"iris/internal/hose"
	"iris/internal/trace"
	"iris/internal/traffic"
	"iris/internal/traffic/traffictest"
)

func TestReplayYieldsClonesInOrder(t *testing.T) {
	m1 := traffic.NewMatrix([]int{1, 2})
	m1.Set(hose.Pair{A: 1, B: 2}, 10)
	m2 := traffic.NewMatrix([]int{1, 2})
	m2.Set(hose.Pair{A: 1, B: 2}, 20)

	f := traffictest.NewReplay(m1, m2)
	got1, ok := f.Next()
	if !ok || got1.Get(hose.Pair{A: 1, B: 2}) != 10 {
		t.Fatalf("first Next = %v, %v", got1, ok)
	}
	// Mutating the yielded matrix must not affect the source.
	got1.Set(hose.Pair{A: 1, B: 2}, 99)
	got2, ok := f.Next()
	if !ok || got2.Get(hose.Pair{A: 1, B: 2}) != 20 {
		t.Fatalf("second Next = %v, %v", got2, ok)
	}
	if _, ok := f.Next(); ok {
		t.Error("replay did not exhaust after two matrices")
	}
}

// TestExhaustedSourcesAreIdempotent pins the Source contract: once Next
// has returned ok=false, every later call must keep returning ok=false.
func TestExhaustedSourcesAreIdempotent(t *testing.T) {
	base := traffic.NewMatrix([]int{1, 2})
	base.Set(hose.Pair{A: 1, B: 2}, 1)
	cp := traffic.ChangeProcess{Bound: 0.1, Caps: map[int]float64{1: 10, 2: 10}, Util: 0.5}
	tr := trace.New(64)
	sources := map[string]traffic.Source{
		"replay": traffictest.NewReplay(base),
		"limit":  traffic.Limit(traffic.NewEvolver(1, base, cp), 1),
		"traced": traffic.Traced(traffictest.NewReplay(base), tr),
	}
	for name, s := range sources {
		if _, ok := s.Next(); !ok {
			t.Fatalf("%s: exhausted before its one matrix", name)
		}
		for i := 0; i < 5; i++ {
			if m, ok := s.Next(); ok || m != nil {
				t.Fatalf("%s: Next after exhaustion returned %v, %v on call %d", name, m, ok, i)
			}
		}
	}
}

// TestTracedEmitsExhaustionOnce: a polling loop hammering an exhausted
// traced feed must journal the exhaustion once, not flood the
// flight-recorder ring with one event per probe.
func TestTracedEmitsExhaustionOnce(t *testing.T) {
	base := traffic.NewMatrix([]int{1, 2})
	base.Set(hose.Pair{A: 1, B: 2}, 1)
	tr := trace.New(256)
	f := traffic.Traced(traffictest.NewReplay(base, base), tr)
	for {
		if _, ok := f.Next(); !ok {
			break
		}
	}
	for i := 0; i < 100; i++ {
		if _, ok := f.Next(); ok {
			t.Fatal("feed revived after exhaustion")
		}
	}
	var shifts, exhausted int
	for _, ev := range tr.Events(trace.Filter{}) {
		switch ev.Name {
		case "shift":
			shifts++
		case "feed-exhausted":
			exhausted++
		}
	}
	if shifts != 2 {
		t.Errorf("journaled %d shift events, want 2", shifts)
	}
	if exhausted != 1 {
		t.Errorf("journaled %d feed-exhausted events, want exactly 1", exhausted)
	}
}

func TestShapedFeedScalesAndClamps(t *testing.T) {
	dcs := []int{1, 2}
	pair := hose.Pair{A: 1, B: 2}
	mk := func(v float64) *traffic.Matrix {
		m := traffic.NewMatrix(dcs)
		m.Set(pair, v)
		return m
	}
	sh, err := traffic.NewShape(5, traffic.LoadProfile{DiurnalAmp: 0.5, DiurnalPeriodS: 40}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	// Step 10s = quarter period: Mult(0)=1, Mult(10)=1.5, Mult(20)=1.
	f := traffic.Shaped(traffictest.NewReplay(mk(8), mk(8), mk(8)), sh, 10, nil)
	want := []float64{8, 12, 8}
	for i, w := range want {
		m, ok := f.Next()
		if !ok {
			t.Fatalf("step %d exhausted early", i)
		}
		if got := m.Get(pair); math.Abs(got-w) > 1e-9 {
			t.Errorf("step %d demand = %v, want %v", i, got, w)
		}
	}
	if _, ok := f.Next(); ok {
		t.Error("shaped feed outlived its replay")
	}
	if _, ok := f.Next(); ok {
		t.Error("shaped feed exhaustion is not idempotent")
	}

	// With hose caps, the flash peak clamps instead of overflowing.
	caps := map[int]float64{1: 10, 2: 10}
	f = traffic.Shaped(traffictest.NewReplay(mk(8), mk(8)), sh, 10, caps)
	m, _ := f.Next()
	if got := m.Get(pair); math.Abs(got-8) > 1e-9 {
		t.Errorf("unshaped step clamped: %v", got)
	}
	m, _ = f.Next()
	if got := m.Get(pair); got > 10+1e-9 {
		t.Errorf("clamped step exceeds hose: %v", got)
	}
	if got := m.Get(pair); got <= 8 {
		t.Errorf("clamp erased the swing entirely: %v", got)
	}

	// A nil shape is a pass-through.
	r := traffictest.NewReplay(mk(4))
	if traffic.Shaped(r, nil, 1, nil) != r {
		t.Error("nil shape should return the source unchanged")
	}
}
