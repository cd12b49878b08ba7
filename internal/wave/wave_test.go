package wave

import (
	"math/rand"
	"testing"
)

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
