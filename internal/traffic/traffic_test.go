package traffic

import (
	"math"
	"math/rand"
	"testing"

	"iris/internal/hose"
)

func TestSizeDistValidation(t *testing.T) {
	for name, fn := range map[string]func(){
		"length mismatch": func() { newSizeDist("x", []float64{1, 2}, []float64{0}) },
		"too short":       func() { newSizeDist("x", []float64{1}, []float64{1}) },
		"non-monotone":    func() { newSizeDist("x", []float64{2, 1}, []float64{0, 1}) },
		"cdf not to 1":    func() { newSizeDist("x", []float64{1, 2}, []float64{0, 0.9}) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		})
	}
}

func TestWorkloadsWellFormed(t *testing.T) {
	names := map[string]bool{}
	for _, d := range Workloads() {
		if d.Name() == "" {
			t.Error("workload without a name")
		}
		names[d.Name()] = true
		m := d.Mean()
		if m <= 0 || math.IsNaN(m) {
			t.Errorf("%s mean = %v", d.Name(), m)
		}
	}
	for _, want := range []string{"web1", "web2", "hadoop", "cache"} {
		if !names[want] {
			t.Errorf("missing workload %q", want)
		}
	}
}

func TestSampleWithinSupport(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, d := range Workloads() {
		lo, hi := d.bytes[0], d.bytes[len(d.bytes)-1]
		for i := 0; i < 5000; i++ {
			s := d.Sample(rng)
			if s < lo-1e-9 || s > hi+1e-9 {
				t.Fatalf("%s: sample %v outside [%v,%v]", d.Name(), s, lo, hi)
			}
		}
	}
}

func TestSampleMatchesCDF(t *testing.T) {
	// Empirical CDF at the breakpoints must approach the table.
	rng := rand.New(rand.NewSource(6))
	d := WebSearch()
	const n = 200000
	samples := make([]float64, n)
	for i := range samples {
		samples[i] = d.Sample(rng)
	}
	for i, b := range d.bytes {
		want := d.cdf[i]
		got := 0
		for _, s := range samples {
			if s <= b+1e-9 {
				got++
			}
		}
		frac := float64(got) / n
		if math.Abs(frac-want) > 0.01 {
			t.Errorf("CDF at %.0fB = %.3f, want %.3f", b, frac, want)
		}
	}
}

func TestShortFlowsDominate(t *testing.T) {
	// The paper picks these workloads because they are dominated by short
	// flows; the simulator's stress-test premise depends on it.
	rng := rand.New(rand.NewSource(7))
	for _, d := range Workloads() {
		short := 0
		const n = 20000
		for i := 0; i < n; i++ {
			if d.Sample(rng) < ShortFlowBytes {
				short++
			}
		}
		if frac := float64(short) / n; frac < 0.35 {
			t.Errorf("%s: only %.0f%% short flows", d.Name(), frac*100)
		}
	}
}

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix([]int{3, 1, 2})
	if len(m.Pairs()) != 3 {
		t.Fatalf("pairs = %v", m.Pairs())
	}
	m.Set(hose.Pair{A: 2, B: 1}, 5)
	if got := m.Get(hose.Pair{A: 1, B: 2}); got != 5 {
		t.Errorf("Get = %v, want orientation-insensitive 5", got)
	}
	if m.Total() != 5 {
		t.Errorf("Total = %v", m.Total())
	}
	use := m.PerDC()
	if use[1] != 5 || use[2] != 5 || use[3] != 0 {
		t.Errorf("PerDC = %v", use)
	}
	c := m.Clone()
	c.Set(hose.Pair{A: 1, B: 3}, 1)
	if m.Get(hose.Pair{A: 1, B: 3}) != 0 {
		t.Error("Clone not deep")
	}
}

func TestMatrixRejectsNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMatrix([]int{1, 2}).Set(hose.Pair{A: 1, B: 2}, -1)
}

func TestClampToHose(t *testing.T) {
	m := NewMatrix([]int{1, 2, 3})
	m.Set(hose.Pair{A: 1, B: 2}, 8)
	m.Set(hose.Pair{A: 1, B: 3}, 8)
	caps := map[int]float64{1: 10, 2: 10, 3: 10}
	m.ClampToHose(caps)
	use := m.PerDC()
	for dc, u := range use {
		if u > caps[dc]+1e-9 {
			t.Errorf("DC %d usage %v exceeds cap", dc, u)
		}
	}
	// DC1 was the violator at 16; its pairs shrink proportionally.
	if got := m.Get(hose.Pair{A: 1, B: 2}); math.Abs(got-5) > 1e-9 {
		t.Errorf("pair demand = %v, want 5", got)
	}
}

func TestClampZeroCapacity(t *testing.T) {
	m := NewMatrix([]int{1, 2})
	m.Set(hose.Pair{A: 1, B: 2}, 4)
	m.ClampToHose(map[int]float64{1: 0, 2: 10})
	if m.Total() != 0 {
		t.Errorf("Total = %v, want 0 with a zero-capacity DC", m.Total())
	}
}

func TestHeavyTailed(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	dcs := []int{10, 11, 12, 13, 14, 15}
	caps := map[int]float64{}
	for _, dc := range dcs {
		caps[dc] = 100
	}
	m := HeavyTailed(rng, dcs, caps, 0.7)

	use := m.PerDC()
	peak := 0.0
	for _, dc := range dcs {
		if use[dc] > 0.7*caps[dc]+1e-6 {
			t.Errorf("DC %d at %.1f exceeds util target 70", dc, use[dc])
		}
		if use[dc] > peak {
			peak = use[dc]
		}
	}
	if peak < 0.5*70 {
		t.Errorf("busiest DC at %.1f; expected near the 70 target", peak)
	}

	// Heavy tail: the top quarter of pairs carries most of the volume.
	var demands []float64
	for _, p := range m.Pairs() {
		demands = append(demands, m.Get(p))
	}
	total := m.Total()
	topSum := 0.0
	for i := 0; i < len(demands); i++ {
		for j := i + 1; j < len(demands); j++ {
			if demands[j] > demands[i] {
				demands[i], demands[j] = demands[j], demands[i]
			}
		}
	}
	for i := 0; i < len(demands)/4; i++ {
		topSum += demands[i]
	}
	if topSum < 0.5*total {
		t.Errorf("top quarter of pairs carries %.0f%%, want most of the traffic", topSum/total*100)
	}
}

func TestChangeProcessBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	dcs := []int{1, 2, 3, 4}
	caps := map[int]float64{1: 50, 2: 50, 3: 50, 4: 50}
	m := HeavyTailed(rng, dcs, caps, 0.4)
	before := m.Clone()
	cp := ChangeProcess{Bound: 0.1, Caps: caps, Util: 0.4}
	cp.Step(rng, m)
	for _, p := range m.Pairs() {
		b, a := before.Get(p), m.Get(p)
		if b == 0 {
			continue
		}
		// Clamping can shrink further, but growth is bounded by 10%.
		if a > b*1.1+1e-9 {
			t.Errorf("pair %v grew %v -> %v, beyond the 10%% bound", p, b, a)
		}
	}
	use := m.PerDC()
	for dc, u := range use {
		if u > 0.4*caps[dc]+1e-6 {
			t.Errorf("DC %d usage %v exceeds target after step", dc, u)
		}
	}
}

func TestChangeProcessUnboundedSwaps(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	dcs := []int{1, 2, 3, 4, 5}
	caps := map[int]float64{1: 50, 2: 50, 3: 50, 4: 50, 5: 50}
	m := HeavyTailed(rng, dcs, caps, 0.5)
	cp := ChangeProcess{Bound: 0, Caps: caps, Util: 0.5}
	changedALot := false
	for step := 0; step < 20 && !changedALot; step++ {
		before := m.Clone()
		cp.Step(rng, m)
		for _, p := range m.Pairs() {
			b, a := before.Get(p), m.Get(p)
			if b > 0 && a > 3*b {
				changedALot = true // a cold pair became hot
			}
		}
	}
	if !changedALot {
		t.Error("unbounded process never promoted a cold pair")
	}
}

func TestChangeProcessEmptyMatrix(t *testing.T) {
	m := NewMatrix(nil)
	cp := ChangeProcess{Bound: 0.5}
	cp.Step(rand.New(rand.NewSource(1)), m) // must not panic
}

// TestHeavyTailedBuildsRepeatExactly: the base matrix is a pure function
// of its seed. Total and PerDC sum in pair order, so twenty builds agree
// on every pair to the last bit, where sums taken in map order did not.
func TestHeavyTailedBuildsRepeatExactly(t *testing.T) {
	dcs := make([]int, 20)
	caps := map[int]float64{}
	for i := range dcs {
		dcs[i] = 3 + 2*i
		caps[dcs[i]] = float64(300 + 37*i) // unequal, so ClampToHose has work
	}
	build := func() *Matrix {
		return HeavyTailed(rand.New(rand.NewSource(11)), dcs, caps, 0.7)
	}
	first := build()
	for run := 1; run < 20; run++ {
		m := build()
		for _, p := range first.Pairs() {
			if got, want := m.Get(p), first.Get(p); got != want {
				t.Fatalf("build %d: pair %v = %v, first build %v", run, p, got, want)
			}
		}
		if m.Total() != first.Total() {
			t.Fatalf("build %d: Total %v, first build %v", run, m.Total(), first.Total())
		}
		for dc, want := range first.PerDC() {
			if got := m.PerDC()[dc]; got != want {
				t.Fatalf("build %d: PerDC[%d] = %v, first build %v", run, dc, got, want)
			}
		}
	}
}
