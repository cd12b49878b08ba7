package graph

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// The typed binary heap below is the independent oracle for the bucket
// queue: the same relaxation driven by a different priority queue. It
// served production as the fallback for graphs without a positive edge
// weight until the bucket loop took those too; it lives on here only to
// prove the one production loop against.

func heapPushItem(h []distItem, it distItem) []distItem {
	h = append(h, it)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !itemLess(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	return h
}

func heapPopItem(h []distItem) ([]distItem, distItem) {
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h) && itemLess(h[l], h[small]) {
			small = l
		}
		if r < len(h) && itemLess(h[r], h[small]) {
			small = r
		}
		if small == i {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
	return h, top
}

// heapDijkstra is the oracle: a fresh tree settled from the given initial
// labels (one for Dijkstra, several for DistancesFromSeeds) on the typed
// heap.
func (g *Graph) heapDijkstra(source int, seeds []Seed) *ShortestPathTree {
	t := new(ShortestPathTree)
	t.reset(g)
	t.Source = source
	var h []distItem
	for _, s := range seeds {
		if better(s.Dist, 0, -1, -1, t.Dist[s.Node], t.Hops[s.Node], t.prev(s.Node), t.prevID(s.Node)) {
			t.Dist[s.Node] = s.Dist
			t.Hops[s.Node] = 0
			h = heapPushItem(h, distItem{node: s.Node, dist: s.Dist})
		}
	}
	done := make([]bool, g.n)
	for len(h) > 0 {
		var it distItem
		h, it = heapPopItem(h)
		u := it.node
		if done[u] {
			continue
		}
		done[u] = true
		for _, he := range g.nbrs[u] {
			v := int(he.to)
			if done[v] {
				continue
			}
			nd := t.Dist[u] + he.w
			nh := t.Hops[u] + 1
			if better(nd, nh, u, int(he.id), t.Dist[v], t.Hops[v], t.prev(v), t.prevID(v)) {
				t.Dist[v] = nd
				t.Hops[v] = nh
				t.pred[v] = step{node: int32(u), edge: he.idx, id: he.id}
				h = heapPushItem(h, distItem{node: v, dist: nd, hops: nh})
			}
		}
	}
	return t
}

// treesEqual asserts two shortest-path trees agree bit-for-bit on every
// label and on every reconstructed path.
func treesEqual(t *testing.T, want, got *ShortestPathTree, n int) {
	t.Helper()
	if want.Source != got.Source {
		t.Fatalf("source %d != %d", got.Source, want.Source)
	}
	for v := 0; v < n; v++ {
		if want.Dist[v] != got.Dist[v] {
			t.Fatalf("node %d: dist %v != %v", v, got.Dist[v], want.Dist[v])
		}
		if want.Hops[v] != got.Hops[v] {
			t.Fatalf("node %d: hops %v != %v", v, got.Hops[v], want.Hops[v])
		}
		wn, we, wok := want.AppendPathTo(v, nil, nil)
		gn, ge, gok := got.AppendPathTo(v, nil, nil)
		if wok != gok || len(wn) != len(gn) || len(we) != len(ge) {
			t.Fatalf("node %d: path shape mismatch", v)
		}
		for i := range wn {
			if wn[i] != gn[i] {
				t.Fatalf("node %d: path node %d: %d != %d", v, i, gn[i], wn[i])
			}
		}
		for i := range we {
			if we[i].ID != ge[i].ID {
				t.Fatalf("node %d: path edge %d: %d != %d", v, i, ge[i].ID, we[i].ID)
			}
		}
	}
}

// randomCut removes each edge of g with probability 1/4, returning the
// removal both ways it can be represented.
func randomCut(rng *rand.Rand, g *Graph) (map[int]bool, *Cut) {
	removed := make(map[int]bool)
	cut := NewCut(g)
	for _, e := range g.Edges() {
		if rng.Intn(4) == 0 {
			removed[e.ID] = true
			cut.Push(e.ID)
		}
	}
	return removed, cut
}

// The skip-mask Dijkstra on the base graph must reproduce, exactly, an
// independent computation on the derived graph: the typed-heap oracle
// over a WithoutEdges clone. Random multigraphs, sources and cuts, with
// the tree and scratch reused (dirty) between trials.
func TestDijkstraIntoMatchesWithoutEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var tree ShortestPathTree
	var sc Scratch
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(14)
		m := rng.Intn(4 * n)
		g := randomGraph(rng, n, m)
		removed, cut := randomCut(rng, g)
		source := rng.Intn(n)
		want := g.WithoutEdges(removed).heapDijkstra(source, []Seed{{Node: source}})
		got := g.DijkstraInto(source, cut.Skip(), &tree, &sc)
		treesEqual(t, want, got, n)
	}
}

// ComponentsInto under a skip mask must label exactly as Components on
// the derived graph does, with the label slice reused between trials.
func TestComponentsIntoMatchesWithoutEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var labels []int
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(14)
		m := rng.Intn(4 * n)
		g := randomGraph(rng, n, m)
		removed, cut := randomCut(rng, g)
		want := g.WithoutEdges(removed).Components()
		labels = g.ComponentsInto(cut.Skip(), labels)
		if !reflect.DeepEqual(labels, want) {
			t.Fatalf("trial %d: components %v, want %v", trial, labels, want)
		}
	}
	g := randomGraph(rng, 40, 60)
	_, cut := randomCut(rng, g)
	labels = g.ComponentsInto(cut.Skip(), labels)
	if avg := testing.AllocsPerRun(20, func() { labels = g.ComponentsInto(cut.Skip(), labels) }); avg != 0 {
		t.Fatalf("ComponentsInto with a reused slice allocated %v per run, want 0", avg)
	}
}

func TestCutPushPopSet(t *testing.T) {
	g := New(3)
	g.AddEdge(5, 0, 1, 1)
	g.AddEdge(2, 1, 2, 1)
	c := NewCut(g)
	if c.Skip() != nil || len(c.IDs()) != 0 {
		t.Fatal("new cut is not empty")
	}
	c.Push(5)
	c.Push(9) // no such edge: listed, masks nothing
	c.Push(2)
	c.Push(5) // duplicate: ignored
	if !reflect.DeepEqual(c.IDs(), []int{2, 5, 9}) {
		t.Fatalf("IDs = %v, want [2 5 9]", c.IDs())
	}
	if !reflect.DeepEqual(c.Skip(), []bool{true, true}) || !c.Has(2) || !c.Has(5) || c.Has(9) {
		t.Fatalf("mask %v does not cover edges 2 and 5 only", c.Skip())
	}
	c.Pop(5)
	if !reflect.DeepEqual(c.IDs(), []int{2, 9}) || c.Has(5) || !c.Has(2) {
		t.Fatalf("after Pop(5): IDs %v, mask %v", c.IDs(), c.Skip())
	}
	c.Set([]int{5})
	if !reflect.DeepEqual(c.IDs(), []int{5}) || !reflect.DeepEqual(c.Skip(), []bool{true, false}) {
		t.Fatalf("after Set([5]): IDs %v, mask %v", c.IDs(), c.Skip())
	}
	c.Set(nil)
	if c.Skip() != nil {
		t.Fatal("Set(nil) did not empty the cut")
	}
}

// Bucket-queue settling must pop in the same order as the typed heap and
// therefore produce identical trees — including on the inputs that have
// no positive edge weight to size buckets by (edgeless, all-zero-weight),
// which the bucket loop serves at width 1.
func TestDijkstraBucketsMatchHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	var bt ShortestPathTree
	var bs Scratch
	check := func(g *Graph, source int) {
		t.Helper()
		got := g.DijkstraInto(source, nil, &bt, &bs)
		want := g.heapDijkstra(source, []Seed{{Node: source}})
		treesEqual(t, want, got, g.NumNodes())
	}
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(14)
		m := rng.Intn(4 * n)
		check(randomGraph(rng, n, m), rng.Intn(n))
	}
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(14)
		check(New(n), rng.Intn(n))
		zero := New(n)
		for id, m := 0, rng.Intn(4*n); id < m; id++ {
			zero.AddEdge(id, rng.Intn(n), rng.Intn(n), 0)
		}
		check(zero, rng.Intn(n))
	}
}

// A pathological weight spread forces everything into the clamped
// overflow bucket; results must still be exact.
func TestDijkstraBucketsOverflowExact(t *testing.T) {
	g := New(6)
	g.AddEdge(0, 0, 1, 1e-6)
	g.AddEdge(1, 1, 2, 1e6)
	g.AddEdge(2, 2, 3, 1e-6)
	g.AddEdge(3, 3, 4, 1e6)
	g.AddEdge(4, 0, 5, 2e6)
	g.AddEdge(5, 5, 4, 1e-6)
	var bt ShortestPathTree
	var bs Scratch
	got := g.DijkstraInto(0, nil, &bt, &bs)
	want := g.heapDijkstra(0, []Seed{{Node: 0}})
	treesEqual(t, want, got, 6)
}

// An infinite edge weight yields infinite and NaN bucket quotients; the
// clamp must route them to the overflow bucket, not out of range.
func TestDijkstraInfiniteWeight(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 0, 1, Inf)
	g.AddEdge(1, 1, 2, Inf)
	var bt ShortestPathTree
	var bs Scratch
	got := g.DijkstraInto(0, nil, &bt, &bs)
	want := g.heapDijkstra(0, []Seed{{Node: 0}})
	treesEqual(t, want, got, 3)
	g.AddEdge(2, 0, 2, 1)
	got = g.DijkstraInto(0, nil, &bt, &bs)
	want = g.heapDijkstra(0, []Seed{{Node: 0}})
	treesEqual(t, want, got, 3)
}

// TestAppendPathToMatchesPathTo: a path appended to reused buffers, after
// a prefix the call must leave alone, is the path read into nil buffers.
func TestAppendPathToMatchesPathTo(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	nodes, edges := []int{-1}, []Edge{{ID: -1}}
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(10)
		g := randomGraph(rng, n, 3*n)
		tr := g.Dijkstra(rng.Intn(n))
		for v := 0; v < n; v++ {
			wn, we, wok := tr.AppendPathTo(v, nil, nil)
			gn, ge, gok := tr.AppendPathTo(v, nodes[:1], edges[:1])
			if wok != gok {
				t.Fatalf("ok mismatch at %d", v)
			}
			if len(gn) != 1+len(wn) || len(ge) != 1+len(we) || gn[0] != -1 || ge[0].ID != -1 {
				t.Fatalf("length or prefix mismatch at %d", v)
			}
			for i := range wn {
				if gn[1+i] != wn[i] {
					t.Fatalf("node mismatch at %d[%d]", v, i)
				}
			}
			for i := range we {
				if ge[1+i].ID != we[i].ID {
					t.Fatalf("edge mismatch at %d[%d]", v, i)
				}
			}
			nodes, edges = gn, ge
		}
	}
}

// A warmed DijkstraInto run must not allocate.
func TestDijkstraIntoZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	g := randomGraph(rng, 60, 200)
	skip := make([]bool, g.NumEdges())
	skip[7] = true
	var tree ShortestPathTree
	var sc Scratch
	g.DijkstraInto(0, skip, &tree, &sc)
	avg := testing.AllocsPerRun(20, func() {
		g.DijkstraInto(3, skip, &tree, &sc)
	})
	if avg != 0 {
		t.Fatalf("warmed DijkstraInto allocated %v per run, want 0", avg)
	}
}

func BenchmarkDijkstraArenaBuckets(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	g := randomGraph(rng, 400, 1600)
	var tree ShortestPathTree
	var sc Scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.DijkstraInto(i%g.NumNodes(), nil, &tree, &sc)
	}
}

// repairGraph builds a random multigraph for TestRepairMatchesDijkstra:
// parallel edges, the odd self-loop, edge IDs with gaps, and either real
// weights or small integers (zero included), where whole paths tie
// exactly and only hops, predecessor and edge ID decide.
func repairGraph(rng *rand.Rand, integer bool) *Graph {
	n := 2 + rng.Intn(20)
	g := New(n)
	id := 0
	for m := rng.Intn(4 * n); m > 0; m-- {
		id += 1 + rng.Intn(2)
		u, v := rng.Intn(n), rng.Intn(n)
		w := 1 + rng.Float64()*99
		if integer {
			w = float64(rng.Intn(4))
		}
		g.AddEdge(id, u, v, w)
	}
	return g
}

// sameLabels asserts two trees agree in every node's distance bits, hop
// count and last hop (predecessor node, tree edge and its ID), and that
// got's last hops are edges of its graph that end at their nodes.
func sameLabels(t *testing.T, what string, got, want *ShortestPathTree) {
	t.Helper()
	if got.Source != want.Source {
		t.Fatalf("%s: source %d, want %d", what, got.Source, want.Source)
	}
	for v := range want.Dist {
		if math.Float64bits(got.Dist[v]) != math.Float64bits(want.Dist[v]) ||
			got.Hops[v] != want.Hops[v] || got.pred[v] != want.pred[v] {
			t.Fatalf("%s, node %d: (%v, %d, %+v), want (%v, %d, %+v)",
				what, v, got.Dist[v], got.Hops[v], got.pred[v], want.Dist[v], want.Hops[v], want.pred[v])
		}
		p := got.pred[v]
		if p == noStep {
			continue
		}
		e := got.g.edges[p.edge]
		if int(p.id) != e.ID || !(e.U == v && e.V == int(p.node) || e.V == v && e.U == int(p.node)) {
			t.Fatalf("%s, node %d: last hop %+v, but edge %d is %d-%d", what, v, p, e.ID, e.U, e.V)
		}
	}
}

// TestRepairMatchesDijkstra binds Repair and Restore. One tree per trial
// is repaired in place through a cut that grows in six stages — now and
// then a stage late, with the edges of both stages — and after every
// repair equals DijkstraInto's under the same mask in every node's
// distance bits, hop count and tree edge. Stages cut random edges, every
// edge of one node (the source's component falls apart) and IDs the graph
// has no edge for. Then Restore, from the last repair back and one or two
// repairs' logs per call, must give back every earlier tree bit for bit.
// The scratch is now and then the one DijkstraInto resets between
// repairs.
func TestRepairMatchesDijkstra(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	var tree, want ShortestPathTree
	var sc, rsc Scratch
	var log []Label
	relabelled, repairs, lagged := 0, 0, 0
	for trial := 0; trial < 400; trial++ {
		g := repairGraph(rng, trial%2 == 1)
		edges := g.Edges()
		source := rng.Intn(g.NumNodes())
		rs := &rsc
		if trial%3 == 0 {
			rs = &sc
		}
		cut := NewCut(g)
		g.DijkstraInto(source, nil, &tree, &sc)
		trees := []*ShortestPathTree{tree.Clone()} // trees[r]: before repair r
		var offs []int                             // offs[r]: where repair r's labels start
		var pending []int                          // IDs cut since the last repair
		log = log[:0]
		for stage := 0; stage < 6; stage++ {
			before := slices.Clone(cut.IDs())
			switch k := rng.Intn(8); {
			case k < 5 && len(edges) > 0:
				for n := 1 + rng.Intn(3); n > 0; n-- {
					cut.Push(edges[rng.Intn(len(edges))].ID)
				}
			case k < 6: // strand a node, now and then the source
				v := source
				if rng.Intn(3) > 0 {
					v = rng.Intn(g.NumNodes())
				}
				neighbors(g, v, func(e Edge) { cut.Push(e.ID) })
			case k < 7: // an ID the graph does not have masks nothing
				cut.Push(g.MaxEdgeID() + 1 + rng.Intn(3))
			default: // the same cut again
			}
			for _, id := range cut.IDs() {
				if !slices.Contains(before, id) {
					pending = append(pending, id)
				}
			}
			if stage < 5 && rng.Intn(3) == 0 {
				continue // the tree lags: the next repair takes both stages
			}
			if len(pending) > 0 && len(pending) > len(cut.IDs())-len(before) {
				lagged++
			}
			offs = append(offs, len(log))
			log = g.Repair(&tree, pending, cut.Skip(), rs, log)
			relabelled += len(log) - offs[len(offs)-1]
			repairs++
			pending = pending[:0]
			g.DijkstraInto(source, cut.Skip(), &want, &sc)
			sameLabels(t, fmt.Sprintf("trial %d stage %d, cut %v, source %d", trial, stage, cut.IDs(), source), &tree, &want)
			trees = append(trees, tree.Clone())
		}
		for r := len(offs); r > 0; {
			back := r - 1 - rng.Intn(min(2, r))
			tree.Restore(log[offs[back]:])
			log = log[:offs[back]]
			sameLabels(t, fmt.Sprintf("trial %d, restored to before repair %d of %d", trial, back, len(offs)), &tree, trees[back])
			r = back
		}
	}
	if relabelled == 0 || relabelled >= repairs*10 || lagged == 0 {
		t.Fatalf("%d nodes relabelled over %d repairs, %d a stage late: the cuts do not exercise a partial repair", relabelled, repairs, lagged)
	}

	g := randomGraph(rng, 60, 200)
	tr := g.DijkstraInto(0, nil, new(ShortestPathTree), &sc)
	cut := NewCut(g)
	ids := []int{int(tr.pred[7].id)}
	cut.Push(ids[0])
	run := func() {
		log = g.Repair(tr, ids, cut.Skip(), &rsc, log[:0])
		tr.Restore(log)
	}
	run()
	if len(log) == 0 {
		t.Fatal("cutting node 7's tree edge relabelled nothing")
	}
	if avg := testing.AllocsPerRun(20, run); avg != 0 {
		t.Fatalf("warmed Repair and Restore allocated %v per run, want 0", avg)
	}
}

// fuzzBytes reads a fuzz input a byte at a time; past its end every byte
// reads 0.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// FuzzRepairMatchesDijkstra is TestRepairMatchesDijkstra on graphs and
// cuts decoded from bytes. The graph: a node count up to 24, an edge
// count up to four per node, then three bytes an edge — its endpoints,
// and a byte whose low two bits are its weight (0 to 3 km, so whole paths
// tie and only hops, predecessor and edge ID decide) and whose next bits
// skip up to two edge IDs. Endpoints may repeat, giving parallel edges and
// self-loops. Then the source, and a byte whose low bit makes the repairs
// share DijkstraInto's scratch. Then up to eight stages, a byte each:
// its low three bits cut one to three edges (0-4, one byte an edge),
// every edge of one node (5, one byte), an ID the graph lacks (6) or
// nothing new (7); its high bit lets the tree lag, so the next repair
// takes both stages. After each repair the tree must equal DijkstraInto's
// under the same mask, last hops included; then Restore, one or two
// repairs' logs a call as the bytes left say, must give back every
// earlier tree.
func FuzzRepairMatchesDijkstra(f *testing.F) {
	f.Add([]byte{3, 3, 0, 1, 0, 1, 2, 0, 0, 2, 0, 0, 0, 0})                                                // a zero-weight triangle, one edge cut
	f.Add([]byte{4, 6, 0, 1, 1, 0, 1, 5, 1, 2, 1, 2, 3, 1, 0, 3, 3, 1, 1, 1, 0, 0, 1, 133, 2, 5, 1, 6, 7}) // parallel edges, a self-loop, a lag
	rng := rand.New(rand.NewSource(53))
	for i := 0; i < 6; i++ {
		seed := make([]byte, 40+rng.Intn(200))
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		n := 1 + in.next()%24
		g := New(n)
		id := 0
		for m := in.next() % (4*n + 1); m > 0; m-- {
			u, v, w := in.next()%n, in.next()%n, in.next()
			id += 1 + (w>>2)%3
			g.AddEdge(id, u, v, float64(w%4))
		}
		edges := g.Edges()
		source := in.next() % n
		var tree, want ShortestPathTree
		var sc, rsc Scratch
		rs := &rsc
		if in.next()%2 == 1 {
			rs = &sc
		}
		cut := NewCut(g)
		g.DijkstraInto(source, nil, &tree, &sc)
		trees := []*ShortestPathTree{tree.Clone()} // trees[r]: before repair r
		var offs []int                             // offs[r]: where repair r's labels start
		var pending []int                          // IDs cut since the last repair
		var log []Label
		for stage := 0; stage < 8 && len(in) > 0; stage++ {
			op := in.next()
			before := slices.Clone(cut.IDs())
			switch {
			case op%8 < 5 && len(edges) > 0:
				for k := 1 + op/8%3; k > 0; k-- {
					cut.Push(edges[in.next()%len(edges)].ID)
				}
			case op%8 == 5:
				neighbors(g, in.next()%n, func(e Edge) { cut.Push(e.ID) })
			case op%8 == 6:
				cut.Push(g.MaxEdgeID() + 1 + op/8%3)
			}
			for _, id := range cut.IDs() {
				if !slices.Contains(before, id) {
					pending = append(pending, id)
				}
			}
			if op >= 128 && stage < 7 && len(in) > 0 {
				continue
			}
			offs = append(offs, len(log))
			log = g.Repair(&tree, pending, cut.Skip(), rs, log)
			pending = pending[:0]
			g.DijkstraInto(source, cut.Skip(), &want, &sc)
			sameLabels(t, fmt.Sprintf("stage %d, cut %v, source %d", stage, cut.IDs(), source), &tree, &want)
			trees = append(trees, tree.Clone())
		}
		for r := len(offs); r > 0; {
			back := r - 1 - in.next()%min(2, r)
			tree.Restore(log[offs[back]:])
			log = log[:offs[back]]
			sameLabels(t, fmt.Sprintf("restored to before repair %d of %d", back, len(offs)), &tree, trees[back])
			r = back
		}
	})
}

// TestStoppedSearchMatchesDijkstraInto binds the early stop of Yen's spur
// searches: over random multigraphs — real weights, or small integers
// with zeros, where whole paths tie — and random skip masks, the search
// stopped when target settles gives target the distance bits, hop count
// and path DijkstraInto gives it, for every source and target. The
// stopped search's tree and scratch are reused, dirty, from one search to
// the next.
func TestStoppedSearchMatchesDijkstraInto(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var full, stopped ShortestPathTree
	var fsc, ssc Scratch
	pairs := 0
	for trial := 0; trial < 200; trial++ {
		g := repairGraph(rng, trial%2 == 0)
		skip := make([]bool, g.NumEdges())
		p := rng.Intn(3) // no mask, one edge in 8 cut, one in 3
		for i := range skip {
			skip[i] = p > 0 && rng.Intn([3]int{0, 8, 3}[p]) == 0
		}
		for source := 0; source < g.NumNodes(); source++ {
			g.DijkstraInto(source, skip, &full, &fsc)
			for target := 0; target < g.NumNodes(); target++ {
				g.dijkstraTo(source, target, skip, &stopped, &ssc)
				what := fmt.Sprintf("trial %d, %d -> %d", trial, source, target)
				if math.Float64bits(stopped.Dist[target]) != math.Float64bits(full.Dist[target]) ||
					stopped.Hops[target] != full.Hops[target] {
					t.Fatalf("%s: stopped (%v, %d hops), full (%v, %d hops)", what,
						stopped.Dist[target], stopped.Hops[target], full.Dist[target], full.Hops[target])
				}
				sn, se, sok := stopped.AppendPathTo(target, nil, nil)
				fn, fe, fok := full.AppendPathTo(target, nil, nil)
				if sok != fok || !slices.Equal(sn, fn) || !slices.Equal(se, fe) {
					t.Fatalf("%s: stopped path %v %v (%v), full %v %v (%v)", what, sn, se, sok, fn, fe, fok)
				}
				if fok {
					pairs++
				}
			}
		}
	}
	if pairs < 10000 {
		t.Fatalf("only %d reachable pairs compared", pairs)
	}
}
