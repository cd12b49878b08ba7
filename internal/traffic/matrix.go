package traffic

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"iris/internal/hose"
)

// Matrix is a symmetric DC-pair demand matrix in abstract demand units
// (the flow simulator scales it to link rates; the planner's circuit
// allocator scales it to wavelengths).
type Matrix struct {
	DCs    []int
	Demand map[hose.Pair]float64
}

// NewMatrix returns a zero matrix over the given DCs.
func NewMatrix(dcs []int) *Matrix {
	sorted := append([]int(nil), dcs...)
	sort.Ints(sorted)
	return &Matrix{DCs: sorted, Demand: make(map[hose.Pair]float64)}
}

// Pairs returns all DC pairs in deterministic order.
func (m *Matrix) Pairs() []hose.Pair {
	var out []hose.Pair
	for i, a := range m.DCs {
		for _, b := range m.DCs[i+1:] {
			out = append(out, hose.Pair{A: a, B: b})
		}
	}
	return out
}

// Get returns the demand of a pair (orientation-insensitive).
func (m *Matrix) Get(p hose.Pair) float64 { return m.Demand[p.Canonical()] }

// Set assigns the demand of a pair. Negative demands panic.
func (m *Matrix) Set(p hose.Pair, d float64) {
	if d < 0 {
		panic(fmt.Sprintf("traffic: negative demand %v for %v", d, p))
	}
	m.Demand[p.Canonical()] = d
}

// each calls fn with every pair of Pairs that has a demand entry, in that
// order (an entry between DCs the matrix does not list is not part of it).
// Float sums taken through it are reproducible where ranging Demand is
// not: two builds of one seeded matrix agree to the last bit.
func (m *Matrix) each(fn func(p hose.Pair, d float64)) {
	for i, a := range m.DCs {
		for _, b := range m.DCs[i+1:] {
			p := hose.Pair{A: a, B: b}.Canonical()
			if d, ok := m.Demand[p]; ok {
				fn(p, d)
			}
		}
	}
}

// Total returns the sum of all pair demands.
func (m *Matrix) Total() float64 {
	var sum float64
	m.each(func(_ hose.Pair, d float64) { sum += d })
	return sum
}

// PerDC returns each DC's aggregate demand (the hose usage).
func (m *Matrix) PerDC() map[int]float64 {
	out := make(map[int]float64, len(m.DCs))
	m.each(func(p hose.Pair, d float64) {
		out[p.A] += d
		out[p.B] += d
	})
	return out
}

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.DCs)
	for p, d := range m.Demand {
		c.Demand[p] = d
	}
	return c
}

// ClampToHose scales down each DC's demands proportionally until no DC
// exceeds its hose capacity. The fixed point is reached in at most
// len(DCs) rounds; demands only ever shrink, so hose feasibility (OC2) is
// guaranteed on return.
func (m *Matrix) ClampToHose(caps map[int]float64) {
	for round := 0; round < len(m.DCs); round++ {
		use := m.PerDC()
		worst := 1.0
		var worstDC int
		for _, dc := range m.DCs {
			if c := caps[dc]; c > 0 && use[dc] > c {
				if r := use[dc] / c; r > worst {
					worst, worstDC = r, dc
				}
			} else if caps[dc] <= 0 && use[dc] > 0 {
				worst, worstDC = 0, dc // no capacity: zero its pairs
			}
		}
		if worst == 1.0 {
			return
		}
		for _, p := range m.Pairs() {
			if p.A == worstDC || p.B == worstDC {
				if worst == 0 {
					m.Set(p, 0)
				} else {
					m.Set(p, m.Get(p)/worst)
				}
			}
		}
	}
}

// HeavyTailed builds the paper's base traffic pattern: a few DC pairs
// exchange most of the traffic. Pair weights follow a Zipf-like power law
// over a random pair order; each DC's aggregate is then clamped to
// util × its hose capacity.
func HeavyTailed(rng *rand.Rand, dcs []int, caps map[int]float64, util float64) *Matrix {
	m := NewMatrix(dcs)
	pairs := m.Pairs()
	perm := rng.Perm(len(pairs))
	for rank, idx := range perm {
		// Zipf weight with exponent 1.2: heavy head, long tail.
		w := 1 / math.Pow(float64(rank+1), 1.2)
		m.Set(pairs[idx], w)
	}
	// Scale so the busiest DC sits exactly at util × capacity and no DC
	// exceeds it; the min-scale keeps the heavy-tailed shape intact
	// (clamping per-DC afterwards would flatten the hot pairs).
	use := m.PerDC()
	scale := math.Inf(1)
	for _, dc := range dcs {
		if use[dc] > 0 && caps[dc] > 0 {
			if s := util * caps[dc] / use[dc]; s < scale {
				scale = s
			}
		}
	}
	if math.IsInf(scale, 1) {
		scale = 0
	}
	for _, p := range pairs {
		m.Set(p, m.Get(p)*scale)
	}
	scaled := make(map[int]float64, len(caps))
	for dc, c := range caps {
		scaled[dc] = util * c
	}
	m.ClampToHose(scaled)
	return m
}

// ChangeProcess evolves a matrix the way §6.3 describes: every interval,
// pair demands drift by at most Bound (fractional change); with unbounded
// changes (Bound ≤ 0), a low-traffic pair and a high-traffic pair swap
// volumes — the "low-traffic DC-DC pair becomes a high-traffic one" event.
type ChangeProcess struct {
	// Bound is the maximum fractional per-pair change per step; ≤ 0 means
	// unbounded (pair swaps).
	Bound float64
	// Caps are hose capacities; demands stay clamped to Util × Caps.
	Caps map[int]float64
	Util float64
}

// Step evolves the matrix in place.
func (cp ChangeProcess) Step(rng *rand.Rand, m *Matrix) {
	pairs := m.Pairs()
	if len(pairs) == 0 {
		return
	}
	if cp.Bound > 0 {
		for _, p := range pairs {
			factor := 1 + cp.Bound*(2*rng.Float64()-1)
			m.Set(p, m.Get(p)*factor)
		}
	} else {
		// Unbounded: swap the volumes of a random hot pair and a random
		// cold pair.
		byDemand := append([]hose.Pair(nil), pairs...)
		sort.Slice(byDemand, func(i, j int) bool {
			di, dj := m.Get(byDemand[i]), m.Get(byDemand[j])
			if di != dj {
				return di > dj
			}
			return byDemand[i].Less(byDemand[j])
		})
		topK := len(byDemand) / 4
		if topK == 0 {
			topK = 1
		}
		hot := byDemand[rng.Intn(topK)]
		cold := byDemand[len(byDemand)-1-rng.Intn(topK)]
		dh, dc := m.Get(hot), m.Get(cold)
		m.Set(hot, dc)
		m.Set(cold, dh)
	}
	scaled := make(map[int]float64, len(cp.Caps))
	for dc, c := range cp.Caps {
		scaled[dc] = cp.Util * c
	}
	m.ClampToHose(scaled)
}

// Forecast rolls a private change-process branch k steps forward from
// base and returns the k successive matrices — the "where might demand
// go next" half of a robust envelope's matrix set. base is not modified;
// the branch's randomness is isolated under seed so forecasting never
// perturbs the live feed's stream.
func Forecast(seed int64, base *Matrix, cp ChangeProcess, k int) []*Matrix {
	if base == nil || k <= 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	m := base.Clone()
	out := make([]*Matrix, 0, k)
	for i := 0; i < k; i++ {
		cp.Step(rng, m)
		out = append(out, m.Clone())
	}
	return out
}
