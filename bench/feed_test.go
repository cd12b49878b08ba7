package main

import (
	"math"
	"reflect"
	"testing"

	"iris/internal/traffic"
)

func testBase() (*traffic.Matrix, map[int]float64) {
	dcs := make([]int, regionDCs)
	caps := make(map[int]float64, regionDCs)
	for i := range dcs {
		dcs[i] = i
		caps[i] = regionCapacity * regionLambda
	}
	return baseMatrix(7, dcs, caps), caps
}

// The base matrix is built once and shared: traffic.HeavyTailed sums in
// map order, so two builds of one seed can differ in the last bit.
var sharedBase, sharedCaps = testBase()

func testFeeds(seed int64) map[string]traffic.Source {
	base, caps := sharedBase, sharedCaps
	return map[string]traffic.Source{
		"dense":  newDenseFeed(seed, base, caps),
		"sparse": newSparseFeed(seed, base, caps),
	}
}

func TestFeedsRepeatBySeed(t *testing.T) {
	a, b, other := testFeeds(3), testFeeds(3), testFeeds(4)
	for name := range a {
		differs := false
		for tick := 0; tick < 50; tick++ {
			ma, _ := a[name].Next()
			mb, _ := b[name].Next()
			mo, _ := other[name].Next()
			if !reflect.DeepEqual(ma.Demand, mb.Demand) {
				t.Fatalf("%s: tick %d differs between two feeds of one seed", name, tick)
			}
			if !reflect.DeepEqual(ma.Demand, mo.Demand) {
				differs = true
			}
		}
		if !differs {
			t.Errorf("%s: seeds 3 and 4 produced the same 50 matrices", name)
		}
	}
}

// A feed whose demand drifts makes tick cost depend on how long the run
// has been going, which is what rules traffic.Evolver's bounded mode out.
func TestFeedsAreStationary(t *testing.T) {
	const ticks, window = 1000, 100
	_, caps := testBase()
	for name, f := range testFeeds(5) {
		var first, last float64
		for tick := 0; tick < ticks; tick++ {
			m, ok := f.Next()
			if !ok {
				t.Fatalf("%s: exhausted at tick %d", name, tick)
			}
			for dc, use := range m.PerDC() {
				if use > feedUtil*caps[dc]*(1+1e-9) {
					t.Fatalf("%s: tick %d: DC %d carries %.1f, hose limit %.1f", name, tick, dc, use, feedUtil*caps[dc])
				}
			}
			switch {
			case tick < window:
				first += m.Total()
			case tick >= ticks-window:
				last += m.Total()
			}
		}
		if drift := math.Abs(last-first) / first; drift >= 0.05 {
			t.Errorf("%s: mean demand moved %.1f%% between the first and last %d ticks", name, 100*drift, window)
		}
	}
}

func TestSparseFeedMovesFewPairs(t *testing.T) {
	f := testFeeds(9)["sparse"]
	prev, _ := f.Next()
	for tick := 1; tick < 200; tick++ {
		m, _ := f.Next()
		if n := traffic.DiffMatrices(prev, m).Len(); n > sparsePairsPerTick {
			t.Fatalf("tick %d changed %d pairs, want at most %d", tick, n, sparsePairsPerTick)
		}
		prev = m
	}
}
