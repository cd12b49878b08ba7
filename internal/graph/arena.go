package graph

import (
	"math"
	"math/bits"
	"sync"
)

// This file is the one Dijkstra main loop and its allocation-free faces.
// The memoised Dijkstra method suits callers that keep one graph alive
// and ask for the same sources repeatedly; a failure-scenario loop is the
// opposite shape — thousands of slightly different graphs, each asked
// once per DC. Two entry points serve it on the *base* graph under an
// edge-exclusion mask (see Cut), writing into a caller-owned tree through
// a reusable Scratch, so a warmed caller performs no heap allocation:
// DijkstraInto computes a tree from nothing, and Repair turns the tree of
// a cut, in place, into the tree of a larger one, relabelling only the
// nodes below the newly cut edges and logging the labels it overwrites,
// which Restore puts back when the cut shrinks again. Dijkstra and
// DistancesFromSeeds run on the same loop with a pooled Scratch.
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
	full    [maxBuckets / 64]uint64 // bit b set: buckets[b] is not empty
	hi      int                     // 1 + highest bucket index touched this run
	queued  int
	hit     []int // Repair: the nodes being relabelled
	settled bool  // done is all set, as Repair leaves it
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
	sc.settled = false
	if cap(sc.done) < n {
		sc.done = make([]bool, n)
	} else {
		sc.done = sc.done[:n]
		clear(sc.done)
	}
	for i := 0; i < sc.hi; i++ {
		sc.buckets[i] = sc.buckets[i][:0]
	}
	clear(sc.full[:(sc.hi+63)/64])
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
	sc.full[bi/64] |= 1 << (bi % 64)
	if bi+1 > sc.hi {
		sc.hi = bi + 1
	}
	sc.queued++
}

// next returns the lowest non-empty bucket at or above b, or -1 if there
// is none: a scan over the occupancy bits, a word of buckets at a time.
func (sc *Scratch) next(b int) int {
	w := b / 64
	m := sc.full[w] &^ (1<<(b%64) - 1)
	for m == 0 {
		w++
		if w*64 >= sc.hi {
			return -1
		}
		m = sc.full[w]
	}
	return w*64 + bits.TrailingZeros64(m)
}

// reset re-initialises a tree's slabs for graph g with every node
// unlabelled, reusing capacity.
func (t *ShortestPathTree) reset(g *Graph) {
	n := g.n
	if cap(t.Dist) < n {
		t.Dist = make([]float64, n)
		t.Hops = make([]int, n)
		t.pred = make([]step, n)
	} else {
		t.Dist = t.Dist[:n]
		t.Hops = t.Hops[:n]
		t.pred = t.pred[:n]
	}
	for i := 0; i < n; i++ {
		t.Dist[i] = Inf
		t.Hops[i] = math.MaxInt
		t.pred[i] = noStep
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
	return g.dijkstraTo(source, -1, skip, t, sc)
}

// dijkstraTo is DijkstraInto stopped as soon as target settles (-1 runs
// to the end). Target's label, and the label of every node on its path,
// is then final and the one DijkstraInto computes: the run is a prefix of
// the full one, a settled label never changes, and a label is only ever
// offered by a settled node, so target's whole path settled before it.
// Other nodes may be left unlabelled or with a label a full run would
// improve: a caller reads only target (AppendPathTo).
func (g *Graph) dijkstraTo(source, target int, skip []bool, t *ShortestPathTree, sc *Scratch) *ShortestPathTree {
	t.reset(g)
	sc.reset(g.n)
	t.Source = source
	t.Dist[source] = 0
	t.Hops[source] = 0
	width := g.bucketWidth()
	sc.push(distItem{node: source}, width)
	g.settle(t, sc, skip, width, target)
	return t
}

// Label is one node's label in a shortest-path tree as a repair found it
// before overwriting it: what Restore puts back.
type Label struct {
	dist float64
	hops int
	node int32
	pred step
}

// Repair brings t, the exact tree of its source under some cut, to the
// exact tree under that cut plus the edges ids: skip is the mask of the
// whole new cut. It appends every label it overwrites to log and returns
// the extended log; the number of entries it appended is the number of
// nodes it relabelled, and Restore with them puts t back.
//
// A tree exact for a cut uses none of the cut's edges, so the subtrees to
// relabel hang below the edges of ids alone: their roots are the endpoints
// of those edges whose tree edge is that edge, found with no pass over the
// nodes. A node whose path runs over no newly cut edge keeps its label:
// its path survives, and every rival label only got worse. The others are
// unlabelled, each is seeded with its best label over its kept neighbours
// under the same better order, and the one settle loop finishes among
// them with the kept nodes already done. A node's final label is the
// least, under better, of what its neighbours' final labels offer it, in
// whatever order the offers arrive, so the result is bit for bit what
// DijkstraInto computes under skip (TestRepairMatchesDijkstra) — for the
// cost of the nodes below the cut, not of the graph.
//
// Between repairs the scratch's settled marks are all set: a repair
// clears the marks of the nodes it relabels and sets them again, so it
// neither resets nor copies anything of the graph's size.
func (g *Graph) Repair(t *ShortestPathTree, ids []int, skip []bool, sc *Scratch, log []Label) []Label {
	if !sc.settled || len(sc.done) != g.n {
		sc.reset(g.n)
		for i := range sc.done {
			sc.done[i] = true
		}
		sc.settled = true
	}
	done := sc.done
	sc.hit = sc.hit[:0]
	for _, id := range ids {
		if idx, ok := g.EdgeIndex(id); ok {
			for _, v := range [2]int{g.edges[idx].U, g.edges[idx].V} {
				if int(t.pred[v].edge) == idx && done[v] {
					done[v] = false
					sc.hit = append(sc.hit, v)
				}
			}
		}
	}
	// The subtrees below: a neighbour reached over the shared edge is a
	// child.
	for k := 0; k < len(sc.hit); k++ {
		x := sc.hit[k]
		for _, h := range g.nbrs[x] {
			if y := int(h.to); done[y] && t.pred[y].edge == h.idx {
				done[y] = false
				sc.hit = append(sc.hit, y)
			}
		}
	}
	hit := sc.hit
	for _, v := range hit {
		log = append(log, Label{dist: t.Dist[v], hops: t.Hops[v], node: int32(v), pred: t.pred[v]})
		t.Dist[v] = Inf
		t.Hops[v] = math.MaxInt
		t.pred[v] = noStep
	}
	width := g.bucketWidth()
	sc.hi = 0
	for _, v := range hit {
		for _, h := range g.nbrs[v] {
			if skip[h.idx] {
				continue
			}
			u := int(h.to)
			if !done[u] || t.Hops[u] == math.MaxInt {
				continue
			}
			nd := t.Dist[u] + h.w
			nh := t.Hops[u] + 1
			if p := t.pred[v]; better(nd, nh, u, int(h.id), t.Dist[v], t.Hops[v], int(p.node), int(p.id)) {
				t.Dist[v] = nd
				t.Hops[v] = nh
				t.pred[v] = step{node: h.to, edge: h.idx, id: h.id}
			}
		}
		if t.pred[v].edge >= 0 {
			sc.push(distItem{node: v, dist: t.Dist[v], hops: t.Hops[v]}, width)
		}
	}
	g.settle(t, sc, skip, width, -1)
	for _, v := range hit {
		done[v] = true
	}
	return log
}

// Restore puts back, last first, the labels that repairs of t appended to
// a log, so t is again the tree it was before the first of them.
func (t *ShortestPathTree) Restore(log []Label) {
	for i := len(log) - 1; i >= 0; i-- {
		l := log[i]
		t.Dist[l.node], t.Hops[l.node], t.pred[l.node] = l.dist, l.hops, l.pred
	}
}

// settle is the Dijkstra main loop, over a monotone bucket queue holding
// the initial labels. Extraction scans the lowest non-empty bucket for
// its minimum under itemLess, so nodes settle in exactly the order a
// priority queue under that total order would pop them — and the tree,
// given the deterministic relaxation, does not depend on the queue.
// Monotonicity holds because a relaxed label is never smaller than the
// label being settled, so pushes never land below the cursor; several
// initial labels (DistancesFromSeeds) are all queued before the first
// pop. It returns once target (a node, or -1 for none) settles; the
// queue it leaves behind is dropped by the next reset.
func (g *Graph) settle(t *ShortestPathTree, sc *Scratch, skip []bool, width float64, target int) {
	bi := 0
	for sc.queued > 0 {
		if bi = sc.next(bi); bi < 0 {
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
		if len(b) == 1 {
			sc.full[bi/64] &^= 1 << (bi % 64)
		}
		sc.queued--
		u := it.node
		if sc.done[u] {
			continue
		}
		sc.done[u] = true
		if u == target {
			return
		}
		du, nh := t.Dist[u], t.Hops[u]+1
		for _, h := range g.nbrs[u] {
			if skip != nil && skip[h.idx] {
				continue
			}
			v := int(h.to)
			if sc.done[v] {
				continue
			}
			nd := du + h.w
			if p := t.pred[v]; better(nd, nh, u, int(h.id), t.Dist[v], t.Hops[v], int(p.node), int(p.id)) {
				t.Dist[v] = nd
				t.Hops[v] = nh
				t.pred[v] = step{node: int32(u), edge: h.idx, id: h.id}
				sc.push(distItem{node: v, dist: nd, hops: nh}, width)
			}
		}
	}
}
