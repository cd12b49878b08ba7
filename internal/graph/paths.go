package graph

import (
	"slices"
	"sync"
)

// Path is one loopless route between two nodes: the node sequence, the
// edges walked (parallel edges are distinguished by ID), and the total
// weight.
type Path struct {
	Nodes []int
	Edges []Edge
	Dist  float64
}

// samePath reports whether two paths walk the same edge sequence.
func samePath(a, b Path) bool {
	if len(a.Edges) != len(b.Edges) {
		return false
	}
	for i := range a.Edges {
		if a.Edges[i].ID != b.Edges[i].ID {
			return false
		}
	}
	return true
}

// lessPath orders candidate paths deterministically: by distance (within
// the Dijkstra epsilon), then by hop count, then lexicographically by
// node sequence, then by edge-ID sequence — the same spirit as the
// deterministic tie-breaking inside Dijkstra itself.
func lessPath(a, b Path) bool {
	const eps = 1e-9
	switch {
	case a.Dist < b.Dist-eps:
		return true
	case a.Dist > b.Dist+eps:
		return false
	}
	if len(a.Edges) != len(b.Edges) {
		return len(a.Edges) < len(b.Edges)
	}
	for i := range a.Nodes {
		if a.Nodes[i] != b.Nodes[i] {
			return a.Nodes[i] < b.Nodes[i]
		}
	}
	for i := range a.Edges {
		if a.Edges[i].ID != b.Edges[i].ID {
			return a.Edges[i].ID < b.Edges[i].ID
		}
	}
	return false
}

// spurState is the storage KShortestPaths' spur searches reuse: the
// tree and scratch of the search, the removed-edge mask, and the buffers
// a candidate path is assembled in before it is known to be new.
type spurState struct {
	tree    ShortestPathTree
	sc      Scratch
	removed []bool
	nodes   []int
	edges   []Edge
}

var spurPool = sync.Pool{New: func() any { return new(spurState) }}

// KShortestPaths returns up to k loopless shortest paths from one node to
// another, best first, using Yen's algorithm over the graph's
// deterministic Dijkstra. Fewer than k paths are returned when the graph
// does not admit them. Results are fully deterministic: ties between
// equal-length paths are broken by hop count, then node sequence, then
// edge IDs.
//
// Each spur step runs the one Dijkstra loop on g under a skip mask and
// stops as soon as to settles, so a spur search costs only the nodes
// nearer its spur node than to is, and the cost is at most
// O(k · n · Dijkstra) — fine for region-scale fiber maps, which have tens
// of ducts. The searches' tree, scratch and mask, and the buffer a
// candidate is assembled in, are reused from call to call.
func (g *Graph) KShortestPaths(from, to, k int) []Path {
	if k <= 0 || from < 0 || from >= g.n || to < 0 || to >= g.n {
		return nil
	}
	t := g.Dijkstra(from)
	nodes, edges, ok := t.AppendPathTo(to, nil, nil)
	if !ok {
		return nil
	}
	if from == to {
		return []Path{{Nodes: []int{from}, Dist: 0}}
	}
	paths := []Path{{Nodes: nodes, Edges: edges, Dist: t.Dist[to]}}
	var candidates []Path
	sp := spurPool.Get().(*spurState)
	defer spurPool.Put(sp)
	if cap(sp.removed) < len(g.edges) {
		sp.removed = make([]bool, len(g.edges))
	}
	removed := sp.removed[:len(g.edges)] // by edge index, cleared per spur

	for len(paths) < k {
		prev := paths[len(paths)-1]
		for i := 0; i < len(prev.Nodes)-1; i++ {
			spur := prev.Nodes[i]
			rootNodes := prev.Nodes[:i+1]
			rootEdges := prev.Edges[:i]

			clear(removed)
			// Any accepted path sharing the root prefix must not be
			// rediscovered: remove the edge each one takes out of the spur.
			for _, p := range paths {
				if len(p.Edges) <= i {
					continue
				}
				match := true
				for j := 0; j <= i; j++ {
					if p.Nodes[j] != rootNodes[j] {
						match = false
						break
					}
				}
				if match {
					removed[g.byID[p.Edges[i].ID]] = true
				}
			}
			// Looplessness: the spur path must not revisit a root node, so
			// every edge incident to the root prefix (spur excluded) goes.
			for _, n := range rootNodes[:len(rootNodes)-1] {
				for _, h := range g.nbrs[n] {
					removed[h.idx] = true
				}
			}

			st := g.dijkstraTo(spur, to, removed, &sp.tree, &sp.sc)
			// The candidate is the root then the spur path, which starts
			// at the spur node the root ends with.
			var cand Path
			var reached bool
			cand.Nodes, cand.Edges, reached = st.AppendPathTo(to,
				append(sp.nodes[:0], rootNodes[:i]...), append(sp.edges[:0], rootEdges...))
			sp.nodes, sp.edges = cand.Nodes, cand.Edges
			if !reached {
				continue
			}
			for _, e := range cand.Edges {
				cand.Dist += e.W
			}
			dup := false
			for _, p := range paths {
				if samePath(p, cand) {
					dup = true
					break
				}
			}
			for _, p := range candidates {
				if dup {
					break
				}
				if samePath(p, cand) {
					dup = true
				}
			}
			if !dup {
				cand.Nodes, cand.Edges = slices.Clone(cand.Nodes), slices.Clone(cand.Edges)
				candidates = append(candidates, cand)
			}
		}
		if len(candidates) == 0 {
			break
		}
		best := 0
		for i := 1; i < len(candidates); i++ {
			if lessPath(candidates[i], candidates[best]) {
				best = i
			}
		}
		paths = append(paths, candidates[best])
		candidates = append(candidates[:best], candidates[best+1:]...)
	}
	return paths
}
