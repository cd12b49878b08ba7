// Package graph implements the graph algorithms the DCI planner is built
// on: weighted undirected multigraphs with stable edge identities, Dijkstra
// shortest paths with deterministic tie-breaking, connectivity queries,
// Dinic max-flow, and enumeration of edge-failure scenarios.
//
// Nodes are dense integer indices 0..N-1; callers keep their own mapping to
// domain objects (data centers, fiber huts). Edges carry caller-assigned IDs
// so that a "fiber duct" keeps its identity across derived graphs (e.g.
// failure scenarios that remove ducts).
package graph

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
)

// Edge is an undirected edge with a stable identity.
type Edge struct {
	ID   int     // caller-assigned, unique within a Graph
	U, V int     // endpoints
	W    float64 // weight (kilometres of fiber, for the planner)
}

// half is one end of an edge as a node's adjacency holds it: the node at
// the other end and the edge's index, ID and weight. A neighbour scan
// reads these entries alone and never the edge list.
type half struct {
	to, idx, id int32
	w           float64
}

// Graph is a weighted undirected multigraph. The zero value is an empty
// graph with no nodes; use New to size it.
//
// Edge IDs index a dense array, so they should be small non-negative
// integers (the planner's duct IDs are); an ID of x costs O(x) index
// memory regardless of edge count.
//
// A Graph is safe for concurrent reads (including Dijkstra, whose
// memoised trees are published under an internal lock) once construction
// is complete; mutating it (AddEdge) concurrently with any other use is
// not.
type Graph struct {
	n     int
	edges []Edge
	byID  []int32  // edge ID -> index in edges, -1 when absent
	nbrs  [][]half // node -> its edges' ends, in insertion order
	minW  float64  // smallest positive edge weight: the bucket quantum

	// sptMu guards spt, the per-source memo of Dijkstra trees. Mutation
	// (AddEdge) invalidates the whole memo.
	sptMu sync.Mutex
	spt   []*ShortestPathTree
}

// New returns an empty graph with n nodes and no edges.
func New(n int) *Graph {
	return &Graph{
		n:    n,
		nbrs: make([][]half, n),
	}
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return g.n }

// NumEdges returns the number of edges.
func (g *Graph) NumEdges() int { return len(g.edges) }

// AddEdge inserts an undirected edge. The edge ID must be unique and the
// weight non-negative; violations panic since they are programming errors.
func (g *Graph) AddEdge(id, u, v int, w float64) {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		panic(fmt.Sprintf("graph: edge %d endpoints (%d,%d) out of range [0,%d)", id, u, v, g.n))
	}
	if w < 0 || math.IsNaN(w) {
		panic(fmt.Sprintf("graph: edge %d has invalid weight %v", id, w))
	}
	if id < 0 {
		panic(fmt.Sprintf("graph: negative edge ID %d", id))
	}
	if id > math.MaxInt32 {
		panic(fmt.Sprintf("graph: edge ID %d does not fit the adjacency", id))
	}
	for id >= len(g.byID) {
		g.byID = append(g.byID, -1)
	}
	if g.byID[id] >= 0 {
		panic(fmt.Sprintf("graph: duplicate edge ID %d", id))
	}
	idx := len(g.edges)
	g.edges = append(g.edges, Edge{ID: id, U: u, V: v, W: w})
	g.link(idx)
	// Mutation invalidates every memoised shortest-path tree.
	g.sptMu.Lock()
	g.spt = nil
	g.sptMu.Unlock()
}

// link indexes edge idx: its ID, the bucket quantum, and one half-edge at
// each endpoint (one only for a self-loop).
func (g *Graph) link(idx int) {
	e := g.edges[idx]
	g.byID[e.ID] = int32(idx)
	if e.W > 0 && (g.minW == 0 || e.W < g.minW) {
		g.minW = e.W
	}
	g.nbrs[e.U] = append(g.nbrs[e.U], half{to: int32(e.V), idx: int32(idx), id: int32(e.ID), w: e.W})
	if e.V != e.U {
		g.nbrs[e.V] = append(g.nbrs[e.V], half{to: int32(e.U), idx: int32(idx), id: int32(e.ID), w: e.W})
	}
}

// Edges returns all edges in insertion order. The slice is shared; callers
// must not modify it.
func (g *Graph) Edges() []Edge { return g.edges }

// EdgeIndex returns the position of edge id in Edges(). Indices are what
// the arena Dijkstra's skip filter is keyed by: they are dense, so a
// []bool can stand in for a set of removed ducts.
func (g *Graph) EdgeIndex(id int) (int, bool) {
	if id < 0 || id >= len(g.byID) || g.byID[id] < 0 {
		return 0, false
	}
	return int(g.byID[id]), true
}

// MaxEdgeID returns the largest edge ID present, or -1 for an edgeless
// graph. Callers sizing per-duct arenas use it as the slab bound.
func (g *Graph) MaxEdgeID() int { return len(g.byID) - 1 }

// WithoutEdges returns a copy of g with the edges whose IDs appear in the
// set removed. It is the reference materialisation of a failure scenario:
// production code routes on the base graph under a Cut's skip mask
// (DijkstraInto, ComponentsInto), and tests prove that path bit-identical
// against this one. The copy is built directly rather than through
// AddEdge: the surviving edges are already validated and unique.
func (g *Graph) WithoutEdges(removed map[int]bool) *Graph {
	h := &Graph{
		n:     g.n,
		edges: make([]Edge, 0, len(g.edges)),
		byID:  make([]int32, len(g.byID)),
		nbrs:  make([][]half, g.n),
	}
	for i := range h.byID {
		h.byID[i] = -1
	}
	for _, e := range g.edges {
		if removed[e.ID] {
			continue
		}
		h.edges = append(h.edges, e)
		h.link(len(h.edges) - 1)
	}
	return h
}

// Inf is the distance reported for unreachable nodes.
var Inf = math.Inf(1)

// ShortestPathTree is the result of a single-source Dijkstra run.
type ShortestPathTree struct {
	Source int
	Dist   []float64 // Dist[v] = distance from Source, Inf if unreachable
	Hops   []int     // number of edges on the chosen path
	// pred[v] is how v was reached: noStep for the source and
	// unreachable nodes.
	pred []step
	g    *Graph
}

// step is a label's last hop: the predecessor node and the index and ID
// of the edge from it. The tie-break reads the node and the ID, and a
// path walk the node and the index, without loading the edge.
type step struct {
	node, edge, id int32
}

var noStep = step{-1, -1, -1}

// Dijkstra computes single-source shortest paths. Ties on distance are
// broken first by hop count, then by the smaller predecessor node, then by
// the smaller edge ID, so that path selection is fully deterministic and
// independent of queue ordering.
//
// Trees are memoised per source and invalidated when the graph mutates,
// so repeated calls from the same source — e.g. a planner re-routing the
// same DCs across a parameter sweep — pay for one run. The returned tree
// is shared: callers must treat it as read-only (AppendPathTo and the other
// accessors only read). Concurrent Dijkstra calls on one graph are safe.
func (g *Graph) Dijkstra(source int) *ShortestPathTree {
	g.sptMu.Lock()
	if g.spt != nil && g.spt[source] != nil {
		t := g.spt[source]
		g.sptMu.Unlock()
		return t
	}
	g.sptMu.Unlock()

	sc := scratchPool.Get().(*Scratch)
	t := g.DijkstraInto(source, nil, new(ShortestPathTree), sc)
	scratchPool.Put(sc)

	g.sptMu.Lock()
	defer g.sptMu.Unlock()
	// Two goroutines may have raced to compute the same source; keep the
	// published tree so every caller shares one (identical) result.
	if g.spt == nil {
		g.spt = make([]*ShortestPathTree, g.n)
	}
	if prev := g.spt[source]; prev != nil {
		return prev
	}
	g.spt[source] = t
	return t
}

// Seed is a starting point for DistancesFromSeeds: a node together with
// the distance already accrued reaching it.
type Seed struct {
	Node int
	Dist float64
}

// DistancesFromSeeds computes, for every node v, the minimum over seeds
// of seed.Dist plus the shortest-path distance from seed.Node to v. It is
// exactly the distance vector Dijkstra would report from a virtual source
// attached to each seed node by an edge of the seed's length — the
// relaxation arithmetic and tie-breaking match, so results are bitwise
// identical — without materialising the extended graph. Results are not
// memoised: seed weights vary per call.
func (g *Graph) DistancesFromSeeds(seeds []Seed) []float64 {
	sc := scratchPool.Get().(*Scratch)
	defer scratchPool.Put(sc)
	t := new(ShortestPathTree)
	t.reset(g)
	sc.reset(g.n)
	width := g.bucketWidth()
	for _, s := range seeds {
		if better(s.Dist, 0, -1, -1, t.Dist[s.Node], t.Hops[s.Node], t.prev(s.Node), t.prevID(s.Node)) {
			t.Dist[s.Node] = s.Dist
			t.Hops[s.Node] = 0
			sc.push(distItem{node: s.Node, dist: s.Dist}, width)
		}
	}
	g.settle(t, sc, nil, width, -1)
	return t.Dist
}

func (t *ShortestPathTree) prev(v int) int { return int(t.pred[v].node) }

func (t *ShortestPathTree) prevID(v int) int { return int(t.pred[v].id) }

// better reports whether the candidate (dist, hops, prevNode, edgeID) is a
// strictly better label than the incumbent under the deterministic order.
func better(d float64, h, pn, eid int, od float64, oh, opn, oeid int) bool {
	const eps = 1e-9
	switch {
	case d < od-eps:
		return true
	case d > od+eps:
		return false
	case h != oh:
		return h < oh
	case pn != opn:
		return pn < opn
	default:
		return eid < oeid
	}
}

// AppendPathTo reads the shortest path from the tree source to v: its
// nodes and edges are appended to the given slices (source first) and the
// extended slices returned, so a warmed caller extracts paths without
// allocating, and nil slices read a fresh path. ok is false when v is
// unreachable, in which case the slices are returned unchanged.
func (t *ShortestPathTree) AppendPathTo(v int, nodes []int, edges []Edge) (_ []int, _ []Edge, ok bool) {
	if math.IsInf(t.Dist[v], 1) {
		return nodes, edges, false
	}
	n0, e0 := len(nodes), len(edges)
	for v != t.Source {
		p := t.pred[v]
		edges = append(edges, t.g.edges[p.edge])
		nodes = append(nodes, v)
		v = int(p.node)
	}
	nodes = append(nodes, t.Source)
	reverseInts(nodes[n0:])
	reverseEdges(edges[e0:])
	return nodes, edges, true
}

// Clone returns a copy of the tree that shares no label with it, for a
// caller that repairs its own copy in place (Repair).
func (t *ShortestPathTree) Clone() *ShortestPathTree {
	c := *t
	c.Dist, c.Hops, c.pred = slices.Clone(t.Dist), slices.Clone(t.Hops), slices.Clone(t.pred)
	return &c
}

func reverseInts(s []int) {
	for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
}

func reverseEdges(s []Edge) {
	for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
}

// Components returns the component label of every node; labels are dense
// from 0 and assigned in order of the smallest node in each component.
func (g *Graph) Components() []int { return g.ComponentsInto(nil, nil) }

// ComponentsInto is Components with the skipped edges excluded (skip is
// indexed by edge index, as in DijkstraInto; nil means none), equal to
// Components on the WithoutEdges-derived graph. The labels are written
// into the given slice, which is grown if needed and returned; its spare
// capacity holds the DFS stack, so passing a previous result back makes
// the call allocation-free.
func (g *Graph) ComponentsInto(skip []bool, labels []int) []int {
	if cap(labels) < 2*g.n {
		labels = make([]int, 2*g.n)
	}
	label := labels[:g.n]
	for i := range label {
		label[i] = -1
	}
	// Every node is pushed at most once (it is labelled when pushed), so
	// the stack never outgrows the spare capacity.
	stack := labels[g.n:g.n]
	next := 0
	for s := 0; s < g.n; s++ {
		if label[s] >= 0 {
			continue
		}
		label[s] = next
		stack = append(stack, s)
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, h := range g.nbrs[n] {
				if skip != nil && skip[h.idx] {
					continue
				}
				if m := int(h.to); label[m] < 0 {
					label[m] = next
					stack = append(stack, m)
				}
			}
		}
		next++
	}
	return label
}

// Cut is a failure scenario over one base graph: the cut edge IDs in
// ascending order, plus the skip mask over the graph's edge indices that
// DijkstraInto and ComponentsInto take. It is the one representation of
// "these ducts are down"; scenario loops push and pop on a single Cut
// instead of deriving a graph per scenario. IDs the graph has no edge for
// are kept in IDs but mask nothing. Not safe for concurrent use.
type Cut struct {
	g    *Graph
	ids  []int
	skip []bool
}

// NewCut returns the empty cut over g. Growing g afterwards invalidates it.
func NewCut(g *Graph) *Cut {
	return &Cut{g: g, skip: make([]bool, len(g.edges))}
}

// Push adds an edge ID to the cut; an ID already present is ignored.
func (c *Cut) Push(id int) {
	i := len(c.ids)
	for i > 0 && c.ids[i-1] > id {
		i--
	}
	if i > 0 && c.ids[i-1] == id {
		return
	}
	c.ids = append(c.ids, 0)
	copy(c.ids[i+1:], c.ids[i:])
	c.ids[i] = id
	if idx, ok := c.g.EdgeIndex(id); ok {
		c.skip[idx] = true
	}
}

// Pop removes an edge ID from the cut.
func (c *Cut) Pop(id int) {
	for i, v := range c.ids {
		if v == id {
			c.ids = append(c.ids[:i], c.ids[i+1:]...)
			if idx, ok := c.g.EdgeIndex(id); ok {
				c.skip[idx] = false
			}
			return
		}
	}
}

// Set makes the cut exactly the given IDs.
func (c *Cut) Set(ids []int) {
	for len(c.ids) > 0 {
		c.Pop(c.ids[len(c.ids)-1])
	}
	for _, id := range ids {
		c.Push(id)
	}
}

// Has reports whether an edge of the graph is cut.
func (c *Cut) Has(id int) bool {
	idx, ok := c.g.EdgeIndex(id)
	return ok && c.skip[idx]
}

// IDs returns the cut edge IDs, ascending. The slice is reused; callers
// must not retain or modify it.
func (c *Cut) IDs() []int { return c.ids }

// Skip returns the mask over the graph's edge indices, or nil — what
// DijkstraInto and ComponentsInto take as no exclusions — for the empty
// cut.
func (c *Cut) Skip() []bool {
	if len(c.ids) == 0 {
		return nil
	}
	return c.skip
}

// FailureScenarios enumerates all subsets of the given edge IDs of size 0
// through maxCuts inclusive and calls fn with each subset as ascending
// IDs (what Cut.Set takes). The slice is reused across calls; fn must not
// retain it. Enumeration order is deterministic: the empty set first,
// then depth-first by sorted ID, so each subset is visited immediately
// after its longest prefix.
func FailureScenarios(ids []int, maxCuts int, fn func(cut []int)) {
	sorted := append([]int(nil), ids...)
	sort.Ints(sorted)
	cut := make([]int, 0, maxCuts)
	fn(cut) // the no-failure scenario

	var rec func(start, remaining int)
	rec = func(start, remaining int) {
		if remaining == 0 {
			return
		}
		for i := start; i < len(sorted); i++ {
			cut = append(cut, sorted[i])
			fn(cut)
			rec(i+1, remaining-1)
			cut = cut[:len(cut)-1]
		}
	}
	if maxCuts > 0 {
		rec(0, maxCuts)
	}
}

// CountFailureScenarios returns the number of scenarios FailureScenarios
// will produce for m edges and the given cut tolerance: sum_{k=0..maxCuts}
// C(m,k).
func CountFailureScenarios(m, maxCuts int) int {
	total := 0
	for k := 0; k <= maxCuts && k <= m; k++ {
		total += binomial(m, k)
	}
	return total
}

func binomial(n, k int) int {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	r := 1
	for i := 0; i < k; i++ {
		r = r * (n - i) / (i + 1)
	}
	return r
}
