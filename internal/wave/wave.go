// Package wave holds the wavelength-assignment machinery a pure
// wavelength-switched design would need, and Iris does not (§5.1–5.2):
// coloring the circuit conflict graph so that circuits sharing a fiber
// link never collide — exactly the extra complexity Appendix B cites as a
// reason to prefer fiber switching. In Iris each DC tunes its own
// transceivers onto the fibers it leases, and fibers, not wavelengths,
// are the switching unit, so no network-wide coordination is needed.
package wave

import "sort"

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
