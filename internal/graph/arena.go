package graph

import (
	"math"
	"sync"
)

// This file is the one Dijkstra main loop and its allocation-free faces.
// The memoised Dijkstra method suits callers that keep one graph alive
// and ask for the same sources repeatedly; a failure-scenario loop is the
// opposite shape — thousands of slightly different graphs, each asked
// once per DC. Two entry points serve it on the *base* graph under an
// edge-exclusion mask (see Cut), writing into a caller-owned tree through
// a reusable Scratch, so a warmed caller performs no heap allocation:
// DijkstraInto computes a tree from nothing, and RepairInto derives the
// tree of a larger cut from the tree of a smaller one, relabelling only
// the nodes below the newly cut edges. Dijkstra and DistancesFromSeeds
// run on the same loop with a pooled Scratch.
//
// Results are bit-identical to Dijkstra on the WithoutEdges-derived
// graph: the deterministic tie-break (better) keys on distances, hop
// counts, node numbers and edge IDs — none of which change when edges
// are filtered instead of removed — and adjacency is scanned in the
// same relative order.

// Scratch holds the reusable per-run state of the Dijkstra loop: the
// settled marks and the monotone bucket queue. A Scratch may be reused
// across runs and graphs but not concurrently.
type Scratch struct {
	done    []bool
	buckets [][]distItem
	hi      int // 1 + highest bucket index touched this run
	queued  int
	hit     []int // RepairInto: the nodes being relabelled
}

// scratchPool lends a Scratch to the calls that have no caller-owned one
// (Dijkstra on a memo miss, DistancesFromSeeds).
var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// maxBuckets bounds bucket-queue memory; distances past the last bucket
// fall into it as an overflow bucket, which is scanned exactly like any
// other so correctness never depends on the width.
const maxBuckets = 1 << 12

type distItem struct {
	node int
	dist float64
	hops int
}

// itemLess is the queue's total order: distance, then hops, then node.
func itemLess(a, b distItem) bool {
	if a.dist != b.dist {
		return a.dist < b.dist
	}
	if a.hops != b.hops {
		return a.hops < b.hops
	}
	return a.node < b.node
}

func (sc *Scratch) reset(n int) {
	if cap(sc.done) < n {
		sc.done = make([]bool, n)
	} else {
		sc.done = sc.done[:n]
		clear(sc.done)
	}
	for i := 0; i < sc.hi; i++ {
		sc.buckets[i] = sc.buckets[i][:0]
	}
	sc.hi = 0
	sc.queued = 0
}

func (sc *Scratch) push(it distItem, width float64) {
	// The comparison, not the conversion, clamps: it also catches the
	// infinite and NaN quotients an infinite edge weight produces.
	bi := maxBuckets - 1
	if q := it.dist / width; q < maxBuckets-1 {
		bi = int(q)
	}
	for bi >= len(sc.buckets) {
		sc.buckets = append(sc.buckets, nil)
	}
	sc.buckets[bi] = append(sc.buckets[bi], it)
	if bi+1 > sc.hi {
		sc.hi = bi + 1
	}
	sc.queued++
}

// reset re-initialises a tree's slabs for graph g with every node
// unlabelled, reusing capacity.
func (t *ShortestPathTree) reset(g *Graph) {
	n := g.n
	if cap(t.Dist) < n {
		t.Dist = make([]float64, n)
		t.Hops = make([]int, n)
		t.prevEdge = make([]int, n)
	} else {
		t.Dist = t.Dist[:n]
		t.Hops = t.Hops[:n]
		t.prevEdge = t.prevEdge[:n]
	}
	for i := 0; i < n; i++ {
		t.Dist[i] = Inf
		t.Hops[i] = math.MaxInt
		t.prevEdge[i] = -1
	}
	t.g = g
	t.Source = -1
}

// bucketWidth is the bucket quantum: the smallest positive edge weight
// (Dial's choice), which keeps buckets near-singleton so the min-scan per
// pop stays O(1). A graph with no finite positive weight gets width 1:
// every finite label is then 0 and shares one bucket, which settle scans
// under the full comparator like any other. Weights whose spread exceeds
// maxBuckets widths share the overflow bucket the same way, so the width
// only ever affects speed.
func (g *Graph) bucketWidth() float64 {
	if w := g.minW; w > 0 && !math.IsInf(w, 1) {
		return w
	}
	return 1
}

// DijkstraInto computes the single-source shortest-path tree of g with
// the skipped edges excluded, writing into t. skip is indexed by edge
// *index* (see EdgeIndex and Cut), not ID; nil means no exclusions. The
// result is bit-identical to Dijkstra on the WithoutEdges-derived graph
// but performs no allocation once t and sc are warm. t is returned for
// convenience.
func (g *Graph) DijkstraInto(source int, skip []bool, t *ShortestPathTree, sc *Scratch) *ShortestPathTree {
	t.reset(g)
	sc.reset(g.n)
	t.Source = source
	t.Dist[source] = 0
	t.Hops[source] = 0
	width := g.bucketWidth()
	sc.push(distItem{node: source}, width)
	g.settle(t, sc, skip, width)
	return t
}

// RepairInto derives the shortest-path tree of g under skip from the tree
// from, which must be the exact tree of the same source under a subset of
// skip (the failure-free tree always is), and writes it into t; t may be
// from itself. It returns the number of nodes it relabelled.
//
// A node whose path in from runs over no newly skipped edge keeps its
// label: its path survives, and every rival label only got worse. The
// others — the subtrees of from below the newly skipped edges — are
// unlabelled, each is seeded with its best label over its kept neighbours
// under the same better order, and the one settle loop finishes among
// them with the kept nodes already done. A node's final label is the
// least, under better, of what its neighbours' final labels offer it, in
// whatever order the offers arrive, so the result is bit for bit what
// DijkstraInto computes under skip (TestRepairMatchesDijkstra) — for the
// cost of the nodes below the cut, not of the graph.
func (g *Graph) RepairInto(from *ShortestPathTree, skip []bool, t *ShortestPathTree, sc *Scratch) int {
	if t != from {
		t.Dist = append(t.Dist[:0], from.Dist...)
		t.Hops = append(t.Hops[:0], from.Hops...)
		t.prevEdge = append(t.prevEdge[:0], from.prevEdge...)
		t.g, t.Source = g, from.Source
	}
	if skip == nil {
		return 0
	}
	sc.hit = sc.hit[:0]
	for v, pe := range t.prevEdge {
		if pe >= 0 && skip[pe] {
			sc.hit = append(sc.hit, v)
		}
	}
	if len(sc.hit) == 0 {
		return 0
	}
	sc.reset(g.n)
	done := sc.done
	for i := range done {
		done[i] = true
	}
	for _, v := range sc.hit {
		done[v] = false
	}
	// The subtrees below: a neighbour reached over the shared edge is a
	// child.
	for k := 0; k < len(sc.hit); k++ {
		x := sc.hit[k]
		for _, idx := range g.adj[x] {
			if y := g.edges[idx].other(x); done[y] && t.prevEdge[y] == idx {
				done[y] = false
				sc.hit = append(sc.hit, y)
			}
		}
	}
	hit := sc.hit
	for _, v := range hit {
		t.Dist[v] = Inf
		t.Hops[v] = math.MaxInt
		t.prevEdge[v] = -1
	}
	width := g.bucketWidth()
	for _, v := range hit {
		for _, idx := range g.adj[v] {
			if skip[idx] {
				continue
			}
			e := g.edges[idx]
			u := e.other(v)
			if !done[u] || t.Hops[u] == math.MaxInt {
				continue
			}
			nd := t.Dist[u] + e.W
			nh := t.Hops[u] + 1
			if better(nd, nh, u, e.ID, t.Dist[v], t.Hops[v], t.prev(v), t.prevID(v)) {
				t.Dist[v] = nd
				t.Hops[v] = nh
				t.prevEdge[v] = idx
			}
		}
		if t.prevEdge[v] >= 0 {
			sc.push(distItem{node: v, dist: t.Dist[v], hops: t.Hops[v]}, width)
		}
	}
	g.settle(t, sc, skip, width)
	return len(hit)
}

// settle is the Dijkstra main loop, over a monotone bucket queue holding
// the initial labels. Extraction scans the lowest non-empty bucket for
// its minimum under itemLess, so nodes settle in exactly the order a
// priority queue under that total order would pop them — and the tree,
// given the deterministic relaxation, does not depend on the queue.
// Monotonicity holds because a relaxed label is never smaller than the
// label being settled, so pushes never land below the cursor; several
// initial labels (DistancesFromSeeds) are all queued before the first
// pop.
func (g *Graph) settle(t *ShortestPathTree, sc *Scratch, skip []bool, width float64) {
	bi := 0
	for sc.queued > 0 {
		for bi < sc.hi && len(sc.buckets[bi]) == 0 {
			bi++
		}
		if bi >= sc.hi {
			return
		}
		b := sc.buckets[bi]
		mi := 0
		for k := 1; k < len(b); k++ {
			if itemLess(b[k], b[mi]) {
				mi = k
			}
		}
		it := b[mi]
		b[mi] = b[len(b)-1]
		sc.buckets[bi] = b[:len(b)-1]
		sc.queued--
		u := it.node
		if sc.done[u] {
			continue
		}
		sc.done[u] = true
		for _, idx := range g.adj[u] {
			if skip != nil && skip[idx] {
				continue
			}
			e := g.edges[idx]
			v := e.other(u)
			if sc.done[v] {
				continue
			}
			nd := t.Dist[u] + e.W
			nh := t.Hops[u] + 1
			if better(nd, nh, u, e.ID, t.Dist[v], t.Hops[v], t.prev(v), t.prevID(v)) {
				t.Dist[v] = nd
				t.Hops[v] = nh
				t.prevEdge[v] = idx
				sc.push(distItem{node: v, dist: nd, hops: nh}, width)
			}
		}
	}
}
