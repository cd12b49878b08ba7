package wave

import (
	"math/rand"
	"reflect"
	"testing"
)

func TestPackDCBasics(t *testing.T) {
	fibers, err := PackDC([]Demand{
		{Dst: 2, Wavelengths: 100}, // 2 full + 20 residual at λ=40
		{Dst: 1, Wavelengths: 40},  // exactly 1 full
		{Dst: 3, Wavelengths: 0},   // nothing
	}, 40)
	if err != nil {
		t.Fatal(err)
	}
	if len(fibers) != 4 {
		t.Fatalf("fibers = %d, want 4", len(fibers))
	}
	// Destination order: dst 1 first.
	if fibers[0].Dst != 1 || len(fibers[0].Slots) != 40 {
		t.Errorf("fiber[0] = %+v", fibers[0])
	}
	if fibers[1].Dst != 2 || len(fibers[1].Slots) != 40 {
		t.Errorf("fiber[1] = %+v", fibers[1])
	}
	if fibers[3].Dst != 2 || len(fibers[3].Slots) != 20 {
		t.Errorf("fiber[3] = %+v (residual)", fibers[3])
	}
}

func TestPackDCErrors(t *testing.T) {
	if _, err := PackDC(nil, 0); err == nil {
		t.Error("expected error for bad lambda")
	}
	if _, err := PackDC([]Demand{{Dst: 1, Wavelengths: -1}}, 40); err == nil {
		t.Error("expected error for negative demand")
	}
	if _, err := PackDC([]Demand{{Dst: 1, Wavelengths: 1}, {Dst: 1, Wavelengths: 2}}, 40); err == nil {
		t.Error("expected error for duplicate destination")
	}
}

func TestPackDCConservesWavelengths(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 200; trial++ {
		lambda := 1 + rng.Intn(64)
		var demands []Demand
		want := 0
		for d := 0; d < 1+rng.Intn(8); d++ {
			w := rng.Intn(3 * lambda)
			demands = append(demands, Demand{Dst: d, Wavelengths: w})
			want += w
		}
		fibers, err := PackDC(demands, lambda)
		if err != nil {
			t.Fatal(err)
		}
		got := 0
		for _, f := range fibers {
			if len(f.Slots) > lambda {
				t.Fatalf("fiber overfilled: %d > λ=%d", len(f.Slots), lambda)
			}
			got += len(f.Slots)
		}
		if got != want {
			t.Fatalf("trial %d: packed %d wavelengths, want %d", trial, got, want)
		}
	}
}

func TestASEFillComplement(t *testing.T) {
	f := Fiber{Dst: 1, Slots: []int{0, 1, 2}}
	fill := ASEFill(f, 6)
	if !reflect.DeepEqual(fill, []int{3, 4, 5}) {
		t.Errorf("fill = %v", fill)
	}
	full := Fiber{Dst: 1, Slots: allSlots(6)}
	if got := ASEFill(full, 6); got != nil {
		t.Errorf("full fiber fill = %v, want none", got)
	}
}

func TestFiberCountMatchesSection43(t *testing.T) {
	// A DC with capacity z fibers sending x+y=z where y is fractional
	// needs z+1 fibers (§4.3's motivating example).
	const lambda = 40
	fibers, err := PackDC([]Demand{
		{Dst: 1, Wavelengths: 70}, // 1 full + residual
		{Dst: 2, Wavelengths: 10}, // residual only
	}, lambda)
	if err != nil {
		t.Fatal(err)
	}
	if len(fibers) != 3 { // demand totals 2 fibers' worth but needs 3
		t.Errorf("fibers = %d, want 3", len(fibers))
	}
}

func TestColorLightpathsSimple(t *testing.T) {
	paths := []Lightpath{
		{ID: 0, Links: []int{1, 2}},
		{ID: 1, Links: []int{2, 3}},
		{ID: 2, Links: []int{3, 4}},
	}
	colors, used := ColorLightpaths(paths)
	if !ValidColoring(paths, colors) {
		t.Fatalf("invalid coloring %v", colors)
	}
	// Paths 0 and 2 are disjoint: two wavelengths suffice.
	if used != 2 {
		t.Errorf("used %d wavelengths, want 2", used)
	}
}

func TestColorLightpathsDisjointSharesColors(t *testing.T) {
	paths := []Lightpath{
		{ID: 0, Links: []int{1}},
		{ID: 1, Links: []int{2}},
		{ID: 2, Links: []int{3}},
	}
	_, used := ColorLightpaths(paths)
	if used != 1 {
		t.Errorf("used %d wavelengths for disjoint paths, want 1", used)
	}
}

func TestColorLightpathsEmpty(t *testing.T) {
	colors, used := ColorLightpaths(nil)
	if colors != nil || used != 0 {
		t.Errorf("empty input: %v, %d", colors, used)
	}
}

func TestColorLightpathsRandomValidAndBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 100; trial++ {
		var paths []Lightpath
		n := 1 + rng.Intn(40)
		for i := 0; i < n; i++ {
			var links []int
			for l := 0; l < 1+rng.Intn(5); l++ {
				links = append(links, rng.Intn(12))
			}
			paths = append(paths, Lightpath{ID: i, Links: links})
		}
		colors, used := ColorLightpaths(paths)
		if !ValidColoring(paths, colors) {
			t.Fatalf("trial %d: invalid coloring", trial)
		}
		lower := minLoadLowerBound(paths)
		if used < lower {
			t.Fatalf("trial %d: used %d below link-load lower bound %d", trial, used, lower)
		}
		// Greedy coloring never needs more than maxdegree+1 colors, and
		// degree < n, so this is a sanity ceiling.
		if used > n {
			t.Fatalf("trial %d: used %d colors for %d paths", trial, used, n)
		}
	}
}

func TestValidColoringDetectsConflicts(t *testing.T) {
	paths := []Lightpath{
		{ID: 0, Links: []int{1}},
		{ID: 1, Links: []int{1}},
	}
	if ValidColoring(paths, []int{0, 0}) {
		t.Error("conflicting colors accepted")
	}
	if ValidColoring(paths, []int{0}) {
		t.Error("short assignment accepted")
	}
	if ValidColoring(paths, []int{0, -1}) {
		t.Error("unassigned path accepted")
	}
	if !ValidColoring(paths, []int{0, 1}) {
		t.Error("valid coloring rejected")
	}
}

// minLoadLowerBound returns the trivial lower bound on the wavelengths any
// assignment needs: the maximum number of lightpaths sharing one link.
func minLoadLowerBound(paths []Lightpath) int {
	byLink := make(map[int]int)
	maxLoad := 0
	for _, p := range paths {
		seen := make(map[int]bool, len(p.Links))
		for _, l := range p.Links {
			if seen[l] {
				continue
			}
			seen[l] = true
			byLink[l]++
			if byLink[l] > maxLoad {
				maxLoad = byLink[l]
			}
		}
	}
	return maxLoad
}

func TestMinLoadLowerBound(t *testing.T) {
	paths := []Lightpath{
		{ID: 0, Links: []int{1, 1, 2}}, // duplicate links count once
		{ID: 1, Links: []int{1}},
		{ID: 2, Links: []int{2}},
	}
	if got := minLoadLowerBound(paths); got != 2 {
		t.Errorf("lower bound = %d, want 2", got)
	}
	if got := minLoadLowerBound(nil); got != 0 {
		t.Errorf("empty lower bound = %d", got)
	}
}
