// Package wave implements Iris's wavelength management. Iris deliberately
// keeps this trivial (§5.1–5.2): each DC independently packs its tunable
// transceivers into outgoing fibers, with amplified-spontaneous-emission
// (ASE) noise filling unused slots so amplifier gain profiles stay flat.
// No network-wide coordination is needed because fibers — not wavelengths
// — are the switching unit.
//
// The package also provides the wavelength-assignment machinery a pure
// wavelength-switched design would need instead: coloring the circuit
// conflict graph so that circuits sharing a fiber link never collide —
// exactly the extra complexity Appendix B cites as a reason to prefer
// fiber switching.
package wave

import (
	"fmt"
	"sort"
)

// Demand is one destination's wavelength requirement from a source DC.
type Demand struct {
	Dst         int
	Wavelengths int
}

// Fiber is one outgoing fiber's packing: the destination its circuit
// points at and the wavelength slots carrying live traffic. Slots not
// listed are ASE-filled.
type Fiber struct {
	Dst   int
	Slots []int
}

// PackDC packs a DC's demands into outgoing fibers of lambda wavelength
// slots each: ⌊d/λ⌋ full fibers per destination plus one residual fiber
// carrying the remainder (§4.3). Full fibers use every slot; residual
// fibers use the lowest slots, leaving the rest for ASE fill. Demands are
// processed in destination order so the packing is deterministic.
func PackDC(demands []Demand, lambda int) ([]Fiber, error) {
	if lambda <= 0 {
		return nil, fmt.Errorf("wave: lambda must be positive, got %d", lambda)
	}
	sorted := append([]Demand(nil), demands...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Dst < sorted[j].Dst })

	var fibers []Fiber
	seen := make(map[int]bool, len(sorted))
	for _, d := range sorted {
		if d.Wavelengths < 0 {
			return nil, fmt.Errorf("wave: negative demand %d for destination %d", d.Wavelengths, d.Dst)
		}
		if seen[d.Dst] {
			return nil, fmt.Errorf("wave: duplicate destination %d", d.Dst)
		}
		seen[d.Dst] = true
		full := d.Wavelengths / lambda
		for i := 0; i < full; i++ {
			fibers = append(fibers, Fiber{Dst: d.Dst, Slots: allSlots(lambda)})
		}
		if rem := d.Wavelengths % lambda; rem > 0 {
			fibers = append(fibers, Fiber{Dst: d.Dst, Slots: allSlots(rem)})
		}
	}
	return fibers, nil
}

func allSlots(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}

// ASEFill returns the slots of a fiber that must carry ASE noise: the
// complement of the live slots in [0, lambda).
func ASEFill(f Fiber, lambda int) []int {
	live := make(map[int]bool, len(f.Slots))
	for _, s := range f.Slots {
		live[s] = true
	}
	var fill []int
	for s := 0; s < lambda; s++ {
		if !live[s] {
			fill = append(fill, s)
		}
	}
	return fill
}

// ---------------------------------------------------------------------------
// Wavelength assignment for a pure wavelength-switched design.

// Lightpath is one wavelength-granularity circuit: the set of fiber-link
// IDs it traverses. Two lightpaths sharing any link must use different
// wavelengths (the wavelength-continuity constraint of all-optical
// wavelength routing).
type Lightpath struct {
	ID    int
	Links []int
}

// ColorLightpaths assigns a wavelength index to every lightpath such that
// no two lightpaths sharing a link receive the same index, using greedy
// largest-degree-first (Welsh–Powell) coloring. It returns the assignment
// (indexed like the input) and the number of wavelengths used.
//
// This is the graph-coloring problem Appendix B identifies as the extra
// complexity of wavelength switching; Iris avoids it entirely.
func ColorLightpaths(paths []Lightpath) ([]int, int) {
	n := len(paths)
	if n == 0 {
		return nil, 0
	}
	// Conflict adjacency via link → paths index.
	byLink := make(map[int][]int)
	for i, p := range paths {
		for _, l := range p.Links {
			byLink[l] = append(byLink[l], i)
		}
	}
	adj := make([]map[int]bool, n)
	for i := range adj {
		adj[i] = make(map[int]bool)
	}
	for _, members := range byLink {
		for i := 0; i < len(members); i++ {
			for j := i + 1; j < len(members); j++ {
				a, b := members[i], members[j]
				if a != b {
					adj[a][b] = true
					adj[b][a] = true
				}
			}
		}
	}

	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(x, y int) bool {
		dx, dy := len(adj[order[x]]), len(adj[order[y]])
		if dx != dy {
			return dx > dy
		}
		return paths[order[x]].ID < paths[order[y]].ID
	})

	colors := make([]int, n)
	for i := range colors {
		colors[i] = -1
	}
	maxColor := 0
	for _, i := range order {
		used := make(map[int]bool, len(adj[i]))
		for j := range adj[i] {
			if colors[j] >= 0 {
				used[colors[j]] = true
			}
		}
		c := 0
		for used[c] {
			c++
		}
		colors[i] = c
		if c+1 > maxColor {
			maxColor = c + 1
		}
	}
	return colors, maxColor
}

// ValidColoring reports whether the assignment is conflict-free.
func ValidColoring(paths []Lightpath, colors []int) bool {
	if len(colors) != len(paths) {
		return false
	}
	byLink := make(map[int][]int)
	for i, p := range paths {
		if colors[i] < 0 {
			return false
		}
		for _, l := range p.Links {
			byLink[l] = append(byLink[l], i)
		}
	}
	for _, members := range byLink {
		seen := make(map[int]int, len(members))
		for _, i := range members {
			if prev, ok := seen[colors[i]]; ok && prev != i {
				return false
			}
			seen[colors[i]] = i
		}
	}
	return true
}
