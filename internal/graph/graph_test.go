package graph

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

func TestAddEdgeValidation(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 0, 1, 5)
	for name, fn := range map[string]func(){
		"out of range":     func() { g.AddEdge(1, 0, 3, 1) },
		"negative weight":  func() { g.AddEdge(1, 0, 1, -1) },
		"NaN weight":       func() { g.AddEdge(1, 0, 1, math.NaN()) },
		"duplicate edgeID": func() { g.AddEdge(0, 1, 2, 1) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		})
	}
}

// edgeByID returns the edge with the given ID.
func edgeByID(g *Graph, id int) (Edge, bool) {
	idx, ok := g.EdgeIndex(id)
	if !ok {
		return Edge{}, false
	}
	return g.edges[idx], true
}

// neighbors calls fn for every edge incident to node n.
func neighbors(g *Graph, n int, fn func(Edge)) {
	for _, h := range g.nbrs[n] {
		fn(g.edges[h.idx])
	}
}

// connected reports whether u and v are in the same component.
func connected(g *Graph, u, v int) bool {
	c := g.Components()
	return c[u] == c[v]
}

// bellmanFord computes single-source shortest path distances in O(V·E):
// the cross-checking oracle for Dijkstra, on the same non-negative
// weights.
func bellmanFord(g *Graph, source int) []float64 {
	dist := make([]float64, g.n)
	for i := range dist {
		dist[i] = Inf
	}
	dist[source] = 0
	for i := 0; i < g.n-1; i++ {
		changed := false
		for _, e := range g.edges {
			if dist[e.U]+e.W < dist[e.V] {
				dist[e.V] = dist[e.U] + e.W
				changed = true
			}
			if dist[e.V]+e.W < dist[e.U] {
				dist[e.U] = dist[e.V] + e.W
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return dist
}

func TestEdgeByID(t *testing.T) {
	g := New(3)
	g.AddEdge(10, 0, 1, 2)
	g.AddEdge(20, 1, 2, 3)
	e, ok := edgeByID(g, 20)
	if !ok || e.U != 1 || e.V != 2 || e.W != 3 {
		t.Fatalf("EdgeByID(20) = %+v, %v", e, ok)
	}
	if _, ok := edgeByID(g, 99); ok {
		t.Fatal("EdgeByID(99) should not exist")
	}
}

func TestNeighbors(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 0, 1, 1)
	g.AddEdge(1, 0, 2, 1)
	g.AddEdge(2, 1, 2, 1)
	var ids []int
	neighbors(g, 0, func(e Edge) { ids = append(ids, e.ID) })
	if !reflect.DeepEqual(ids, []int{0, 1}) {
		t.Fatalf("Neighbors(0) edge IDs = %v", ids)
	}
}

// lineGraph returns 0-1-2-...-n-1 with unit weights and edge IDs = left node.
func lineGraph(n int) *Graph {
	g := New(n)
	for i := 0; i < n-1; i++ {
		g.AddEdge(i, i, i+1, 1)
	}
	return g
}

func TestDijkstraLine(t *testing.T) {
	g := lineGraph(5)
	tr := g.Dijkstra(0)
	for v := 0; v < 5; v++ {
		if tr.Dist[v] != float64(v) {
			t.Errorf("Dist[%d] = %v, want %d", v, tr.Dist[v], v)
		}
	}
	nodes, edges, ok := tr.AppendPathTo(4, nil, nil)
	if !ok {
		t.Fatal("AppendPathTo(4) not ok")
	}
	if !reflect.DeepEqual(nodes, []int{0, 1, 2, 3, 4}) {
		t.Errorf("nodes = %v", nodes)
	}
	if len(edges) != 4 {
		t.Errorf("edges = %v", edges)
	}
}

func TestDijkstraUnreachable(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 0, 1, 1)
	tr := g.Dijkstra(0)
	if !math.IsInf(tr.Dist[2], 1) {
		t.Errorf("Dist[2] = %v, want +Inf", tr.Dist[2])
	}
	if _, _, ok := tr.AppendPathTo(2, nil, nil); ok {
		t.Error("AppendPathTo(2) should report unreachable")
	}
}

func TestDijkstraPrefersFewerHopsOnTies(t *testing.T) {
	// Two paths 0→3 of equal length 2: direct edge (1 hop) and via node 1
	// (2 hops). The deterministic tie-break must choose the direct edge.
	g := New(4)
	g.AddEdge(0, 0, 1, 1)
	g.AddEdge(1, 1, 3, 1)
	g.AddEdge(2, 0, 3, 2)
	tr := g.Dijkstra(0)
	nodes, _, _ := tr.AppendPathTo(3, nil, nil)
	if !reflect.DeepEqual(nodes, []int{0, 3}) {
		t.Errorf("path = %v, want direct [0 3]", nodes)
	}
	if tr.Hops[3] != 1 {
		t.Errorf("Hops[3] = %d, want 1", tr.Hops[3])
	}
}

func TestDijkstraDeterministicAcrossInsertionOrders(t *testing.T) {
	// Same graph, edges inserted in different orders, must give identical
	// paths (tie-break is on IDs and node numbers, not insertion order).
	build := func(order []int) *Graph {
		g := New(4)
		type spec struct{ id, u, v int }
		specs := []spec{{0, 0, 1}, {1, 0, 2}, {2, 1, 3}, {3, 2, 3}}
		for _, i := range order {
			s := specs[i]
			g.AddEdge(s.id, s.u, s.v, 1)
		}
		return g
	}
	a := build([]int{0, 1, 2, 3})
	b := build([]int{3, 2, 1, 0})
	pa, _, _ := a.Dijkstra(0).AppendPathTo(3, nil, nil)
	pb, _, _ := b.Dijkstra(0).AppendPathTo(3, nil, nil)
	if !reflect.DeepEqual(pa, pb) {
		t.Errorf("paths differ across insertion orders: %v vs %v", pa, pb)
	}
	// And the canonical choice is via node 1 (smaller predecessor).
	if !reflect.DeepEqual(pa, []int{0, 1, 3}) {
		t.Errorf("canonical path = %v, want [0 1 3]", pa)
	}
}

func randomGraph(rng *rand.Rand, n, m int) *Graph {
	g := New(n)
	for i := 0; i < m; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			v = (v + 1) % n
		}
		g.AddEdge(i, u, v, 1+rng.Float64()*99)
	}
	return g
}

func TestDijkstraMatchesBellmanFord(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(12)
		m := rng.Intn(3 * n)
		g := randomGraph(rng, n, m)
		src := rng.Intn(n)
		d1 := g.Dijkstra(src).Dist
		d2 := bellmanFord(g, src)
		for v := range d1 {
			a, b := d1[v], d2[v]
			if math.IsInf(a, 1) != math.IsInf(b, 1) {
				t.Fatalf("trial %d: reachability mismatch at node %d: %v vs %v", trial, v, a, b)
			}
			if !math.IsInf(a, 1) && math.Abs(a-b) > 1e-6 {
				t.Fatalf("trial %d: distance mismatch at node %d: %v vs %v", trial, v, a, b)
			}
		}
	}
}

func TestPathDistancesConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		g := randomGraph(rng, 10, 20)
		tr := g.Dijkstra(0)
		for v := 0; v < 10; v++ {
			nodes, edges, ok := tr.AppendPathTo(v, nil, nil)
			if !ok {
				continue
			}
			var sum float64
			for _, e := range edges {
				sum += e.W
			}
			if math.Abs(sum-tr.Dist[v]) > 1e-9 {
				t.Fatalf("path weight %v != Dist %v", sum, tr.Dist[v])
			}
			if len(nodes) != len(edges)+1 {
				t.Fatalf("nodes/edges length mismatch: %d vs %d", len(nodes), len(edges))
			}
			if nodes[0] != 0 || nodes[len(nodes)-1] != v {
				t.Fatalf("path endpoints wrong: %v", nodes)
			}
		}
	}
}

func TestWithoutEdges(t *testing.T) {
	g := lineGraph(4)
	h := g.WithoutEdges(map[int]bool{1: true})
	if h.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2", h.NumEdges())
	}
	if connected(h, 0, 3) {
		t.Error("0 and 3 should be disconnected after removing edge 1")
	}
	if !connected(h, 0, 1) || !connected(h, 2, 3) {
		t.Error("remaining segments should stay connected")
	}
	// Original graph untouched.
	if g.NumEdges() != 3 || !connected(g, 0, 3) {
		t.Error("WithoutEdges mutated the original graph")
	}
}

func TestComponents(t *testing.T) {
	g := New(5)
	g.AddEdge(0, 0, 1, 1)
	g.AddEdge(1, 2, 3, 1)
	labels := g.Components()
	want := []int{0, 0, 1, 1, 2}
	if !reflect.DeepEqual(labels, want) {
		t.Errorf("Components = %v, want %v", labels, want)
	}
}

func TestFailureScenarios(t *testing.T) {
	ids := []int{3, 1, 2}
	var got [][]int
	FailureScenarios(ids, 2, func(cut []int) {
		got = append(got, append([]int(nil), cut...))
	})
	want := [][]int{
		nil,
		{1}, {1, 2}, {1, 3},
		{2}, {2, 3},
		{3},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("scenarios = %v, want %v", got, want)
	}
	if n := CountFailureScenarios(3, 2); n != len(want) {
		t.Errorf("CountFailureScenarios(3,2) = %d, want %d", n, len(want))
	}
}

func TestCountFailureScenarios(t *testing.T) {
	tests := []struct{ m, k, want int }{
		{0, 0, 1},
		{5, 0, 1},
		{5, 1, 6},
		{5, 2, 16},
		{10, 2, 56},
		{3, 5, 8}, // tolerance larger than edge count: all subsets
	}
	for _, tt := range tests {
		if got := CountFailureScenarios(tt.m, tt.k); got != tt.want {
			t.Errorf("CountFailureScenarios(%d,%d) = %d, want %d", tt.m, tt.k, got, tt.want)
		}
	}
}

func TestFailureScenariosMatchesCount(t *testing.T) {
	ids := []int{10, 20, 30, 40, 50, 60}
	for k := 0; k <= 3; k++ {
		n := 0
		FailureScenarios(ids, k, func([]int) { n++ })
		if want := CountFailureScenarios(len(ids), k); n != want {
			t.Errorf("k=%d: enumerated %d scenarios, want %d", k, n, want)
		}
	}
}

func TestDijkstraMemoisedAndInvalidated(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 0, 1, 1)
	g.AddEdge(1, 1, 2, 1)
	g.AddEdge(2, 2, 3, 1)

	t1 := g.Dijkstra(0)
	if t2 := g.Dijkstra(0); t2 != t1 {
		t.Error("repeated Dijkstra from one source should return the memoised tree")
	}
	if t1.Dist[3] != 3 {
		t.Fatalf("Dist[3] = %v, want 3", t1.Dist[3])
	}

	// Mutation must invalidate the memo: the shortcut changes the answer.
	g.AddEdge(3, 0, 3, 1)
	t3 := g.Dijkstra(0)
	if t3 == t1 {
		t.Error("AddEdge did not invalidate the shortest-path memo")
	}
	if t3.Dist[3] != 1 {
		t.Errorf("Dist[3] after shortcut = %v, want 1", t3.Dist[3])
	}
}

func TestDijkstraConcurrentSharedGraph(t *testing.T) {
	g := New(50)
	id := 0
	for i := 0; i < 49; i++ {
		g.AddEdge(id, i, i+1, float64(1+i%3))
		id++
	}
	for i := 0; i < 40; i += 5 {
		g.AddEdge(id, i, i+7, 2.5)
		id++
	}

	want := g.heapDijkstra(0, []Seed{{Node: 0}}).Dist // uncached oracle
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := 0; s < 10; s++ {
				tr := g.Dijkstra(s % 3)
				if s%3 == 0 {
					for v, d := range tr.Dist {
						if d != want[v] {
							t.Errorf("concurrent Dijkstra: Dist[%d] = %v, want %v", v, d, want[v])
							return
						}
					}
				}
				if _, _, ok := tr.AppendPathTo(49, nil, nil); !ok {
					t.Error("AppendPathTo(49) unreachable on a connected graph")
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestDistancesFromSeedsMatchesVirtualSource checks the exact-equivalence
// contract of DistancesFromSeeds: seeding nodes h with weights w must
// reproduce, bit for bit, the distances Dijkstra reports from an extra
// source node attached to each h by an edge of length w.
func TestDistancesFromSeedsMatchesVirtualSource(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		n := 8 + rng.Intn(12)
		g := New(n)
		ext := New(n + 1) // same graph plus the virtual source at node n
		id := 0
		for i := 1; i < n; i++ { // random connected multigraph
			j := rng.Intn(i)
			w := 1 + 10*rng.Float64()
			g.AddEdge(id, i, j, w)
			ext.AddEdge(id, i, j, w)
			id++
		}
		for k := 0; k < n; k++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			w := 1 + 10*rng.Float64()
			g.AddEdge(id, u, v, w)
			ext.AddEdge(id, u, v, w)
			id++
		}

		h1 := rng.Intn(n)
		h2 := (h1 + 1 + rng.Intn(n-1)) % n
		w1, w2 := 5*rng.Float64(), 5*rng.Float64()
		ext.AddEdge(id, n, h1, w1)
		ext.AddEdge(id+1, n, h2, w2)

		want := ext.Dijkstra(n).Dist[:n]
		got := g.DistancesFromSeeds([]Seed{{Node: h1, Dist: w1}, {Node: h2, Dist: w2}})
		for v := 0; v < n; v++ {
			if got[v] != want[v] {
				t.Fatalf("trial %d: dist[%d] = %v, virtual-source Dijkstra gives %v", trial, v, got[v], want[v])
			}
		}
	}
}

// TestWithoutEdgesMatchesRebuild pins the direct-construction fast path to
// the semantics of an AddEdge rebuild on random multigraphs: identical
// edges, adjacency-driven traversal, ID lookup, and Dijkstra trees, and the
// derived copy must remain fully usable (memoisation, further mutation).
func TestWithoutEdgesMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(10)
		g := New(n)
		m := rng.Intn(25)
		for id := 0; id < m; id++ {
			g.AddEdge(id, rng.Intn(n), rng.Intn(n), float64(rng.Intn(30)))
		}
		removed := make(map[int]bool)
		for id := 0; id < m; id++ {
			if rng.Intn(3) == 0 {
				removed[id] = true
			}
		}

		got := g.WithoutEdges(removed)
		want := New(n)
		for _, e := range g.Edges() {
			if !removed[e.ID] {
				want.AddEdge(e.ID, e.U, e.V, e.W)
			}
		}

		if len(got.Edges()) != len(want.Edges()) {
			t.Fatalf("trial %d: %d edges, want %d", trial, len(got.Edges()), len(want.Edges()))
		}
		for i, e := range want.Edges() {
			if got.Edges()[i] != e {
				t.Fatalf("trial %d: edge[%d] = %v, want %v", trial, i, got.Edges()[i], e)
			}
		}
		for _, e := range want.Edges() {
			ge, ok := edgeByID(got, e.ID)
			if !ok || ge != e {
				t.Fatalf("trial %d: EdgeByID(%d) = %v,%v, want %v", trial, e.ID, ge, ok, e)
			}
		}
		if _, ok := edgeByID(got, -1); ok {
			t.Fatalf("trial %d: EdgeByID(-1) found an edge", trial)
		}
		for v := 0; v < n; v++ {
			var gotAdj, wantAdj []Edge
			neighbors(got, v, func(e Edge) { gotAdj = append(gotAdj, e) })
			neighbors(want, v, func(e Edge) { wantAdj = append(wantAdj, e) })
			if !reflect.DeepEqual(gotAdj, wantAdj) {
				t.Fatalf("trial %d: Neighbors(%d) = %v, want %v", trial, v, gotAdj, wantAdj)
			}
		}
		for s := 0; s < n; s++ {
			gt, wt := got.Dijkstra(s), want.Dijkstra(s)
			if !reflect.DeepEqual(gt.Dist, wt.Dist) || !reflect.DeepEqual(gt.Hops, wt.Hops) {
				t.Fatalf("trial %d: Dijkstra(%d) differs", trial, s)
			}
			if got.Dijkstra(s) != gt {
				t.Fatalf("trial %d: derived graph does not memoise Dijkstra trees", trial)
			}
		}
		// The copy must accept further mutation like any other graph.
		got.AddEdge(m, 0, n-1, 1)
		if _, ok := edgeByID(got, m); !ok {
			t.Fatalf("trial %d: AddEdge on derived graph lost the edge", trial)
		}
	}
}

func BenchmarkWithoutEdges(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := New(64)
	for id := 0; id < 256; id++ {
		g.AddEdge(id, rng.Intn(64), rng.Intn(64), rng.Float64()*40)
	}
	removed := map[int]bool{3: true, 99: true}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.WithoutEdges(removed)
	}
}
