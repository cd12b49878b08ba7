package graph

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

func TestMaxFlowSimple(t *testing.T) {
	// Classic diamond: s=0, t=3.
	f := NewFlowNetwork(4)
	f.AddArc(0, 1, 3)
	f.AddArc(0, 2, 2)
	f.AddArc(1, 3, 2)
	f.AddArc(2, 3, 3)
	f.AddArc(1, 2, 1)
	if got := f.MaxFlow(0, 3); got != 5 {
		t.Errorf("MaxFlow = %v, want 5", got)
	}
}

func TestMaxFlowDisconnected(t *testing.T) {
	f := NewFlowNetwork(4)
	f.AddArc(0, 1, 10)
	if got := f.MaxFlow(0, 3); got != 0 {
		t.Errorf("MaxFlow = %v, want 0", got)
	}
}

func TestMaxFlowSourceIsSink(t *testing.T) {
	f := NewFlowNetwork(2)
	f.AddArc(0, 1, 10)
	if got := f.MaxFlow(0, 0); got != 0 {
		t.Errorf("MaxFlow(s,s) = %v, want 0", got)
	}
}

func TestMaxFlowInfiniteArc(t *testing.T) {
	f := NewFlowNetwork(3)
	f.AddArc(0, 1, math.Inf(1))
	f.AddArc(1, 2, 7)
	if got := f.MaxFlow(0, 2); got != 7 {
		t.Errorf("MaxFlow = %v, want 7", got)
	}
}

func TestFlowPerArc(t *testing.T) {
	f := NewFlowNetwork(3)
	a := f.AddArc(0, 1, 4)
	b := f.AddArc(0, 1, 3)
	c := f.AddArc(1, 2, 5)
	total := f.MaxFlow(0, 2)
	if total != 5 {
		t.Fatalf("MaxFlow = %v, want 5", total)
	}
	if got := f.Flow(a) + f.Flow(b); math.Abs(got-5) > 1e-9 {
		t.Errorf("flow into node 1 = %v, want 5", got)
	}
	if got := f.Flow(c); math.Abs(got-5) > 1e-9 {
		t.Errorf("flow on bottleneck = %v, want 5", got)
	}
}

func TestAddArcValidation(t *testing.T) {
	f := NewFlowNetwork(2)
	for name, fn := range map[string]func(){
		"node out of range": func() { f.AddArc(0, 2, 1) },
		"negative capacity": func() { f.AddArc(0, 1, -1) },
		"NaN capacity":      func() { f.AddArc(0, 1, math.NaN()) },
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

// bruteMinCut computes the minimum s-t cut by enumerating all node subsets.
// Usable only for small n; serves as the max-flow = min-cut oracle.
func bruteMinCut(n int, arcs [][3]float64, s, t int) float64 {
	best := math.Inf(1)
	for mask := 0; mask < 1<<n; mask++ {
		if mask&(1<<s) == 0 || mask&(1<<t) != 0 {
			continue
		}
		var cut float64
		for _, a := range arcs {
			u, v, c := int(a[0]), int(a[1]), a[2]
			if mask&(1<<u) != 0 && mask&(1<<v) == 0 {
				cut += c
			}
		}
		if cut < best {
			best = cut
		}
	}
	return best
}

func TestMaxFlowEqualsMinCutRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(6)
		m := rng.Intn(2 * n * n)
		arcs := make([][3]float64, 0, m)
		f := NewFlowNetwork(n)
		for i := 0; i < m; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			c := float64(rng.Intn(10))
			arcs = append(arcs, [3]float64{float64(u), float64(v), c})
			f.AddArc(u, v, c)
		}
		s, tt := 0, n-1
		flow := f.MaxFlow(s, tt)
		cut := bruteMinCut(n, arcs, s, tt)
		if math.Abs(flow-cut) > 1e-6 {
			t.Fatalf("trial %d: maxflow %v != mincut %v (n=%d, arcs=%v)", trial, flow, cut, n, arcs)
		}
	}
}

func TestMinCutInto(t *testing.T) {
	f := NewFlowNetwork(4)
	f.AddArc(0, 1, 10)
	f.AddArc(1, 2, 1) // bottleneck
	f.AddArc(2, 3, 10)
	f.MaxFlow(0, 3)
	want := []bool{true, true, false, false}
	// A nil slice, a short one and one left full by an earlier call all
	// come back as the source side.
	for _, seen := range [][]bool{nil, make([]bool, 2), {true, true, true, true, true}} {
		if got := f.MinCutInto(0, seen); !slices.Equal(got, want) {
			t.Errorf("MinCutInto(0, %v) = %v, want %v", seen, got, want)
		}
	}
	seen := make([]bool, 4)
	if avg := testing.AllocsPerRun(10, func() { f.MinCutInto(0, seen) }); avg != 0 {
		t.Errorf("MinCutInto on a kept slice allocated %v per run, want 0", avg)
	}
}

func TestMaxFlowConservation(t *testing.T) {
	// On random networks, verify conservation at internal nodes by
	// recomputing per-arc flows.
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 100; trial++ {
		n := 3 + rng.Intn(8)
		f := NewFlowNetwork(n)
		type arcRec struct {
			idx, u, v int
		}
		var recs []arcRec
		for i := 0; i < 3*n; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			idx := f.AddArc(u, v, float64(rng.Intn(20)))
			recs = append(recs, arcRec{idx, u, v})
		}
		total := f.MaxFlow(0, n-1)
		net := make([]float64, n)
		for _, r := range recs {
			fl := f.Flow(r.idx)
			if fl < -1e-9 {
				t.Fatalf("negative flow %v", fl)
			}
			net[r.u] -= fl
			net[r.v] += fl
		}
		for v := 1; v < n-1; v++ {
			if math.Abs(net[v]) > 1e-6 {
				t.Fatalf("trial %d: conservation violated at node %d: %v", trial, v, net[v])
			}
		}
		if math.Abs(net[n-1]-total) > 1e-6 || math.Abs(net[0]+total) > 1e-6 {
			t.Fatalf("trial %d: endpoint imbalance: src %v sink %v total %v", trial, net[0], net[n-1], total)
		}
	}
}

// TestFlowNetworkReset covers the footgun MaxFlow documents: a second run
// on a consumed network continues from the residual, while Reset restores
// the as-built capacities so reruns are independent.
func TestFlowNetworkReset(t *testing.T) {
	f := NewFlowNetwork(4)
	a := f.AddArc(0, 1, 10)
	f.AddArc(1, 2, 1) // bottleneck
	f.AddArc(2, 3, 10)
	if got := f.MaxFlow(0, 3); got != 1 {
		t.Fatalf("first MaxFlow = %v, want 1", got)
	}
	// Without Reset the bottleneck is spent.
	if got := f.MaxFlow(0, 3); got != 0 {
		t.Fatalf("MaxFlow on consumed network = %v, want 0", got)
	}
	f.Reset()
	if got := f.Flow(a); got != 0 {
		t.Fatalf("Flow after Reset = %v, want 0", got)
	}
	if got := f.MaxFlow(0, 3); got != 1 {
		t.Fatalf("MaxFlow after Reset = %v, want 1", got)
	}
	// Different terminals on the same network, again after Reset.
	f.Reset()
	if got := f.MaxFlow(1, 3); got != 1 {
		t.Fatalf("MaxFlow(1,3) after Reset = %v, want 1", got)
	}
}

// TestResetMatchesRebuild checks on random networks that Reset+MaxFlow is
// equivalent to rebuilding the network from scratch.
func TestResetMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 50; trial++ {
		n := 3 + rng.Intn(8)
		type arcSpec struct {
			u, v int
			c    float64
		}
		var specs []arcSpec
		f := NewFlowNetwork(n)
		for i := 0; i < 3*n; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			c := float64(rng.Intn(20))
			specs = append(specs, arcSpec{u, v, c})
			f.AddArc(u, v, c)
		}
		f.MaxFlow(0, n-1) // consume
		f.Reset()
		got := f.MaxFlow(n-1, 0)

		fresh := NewFlowNetwork(n)
		for _, s := range specs {
			fresh.AddArc(s.u, s.v, s.c)
		}
		want := fresh.MaxFlow(n-1, 0)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d: reset maxflow %v, rebuilt %v", trial, got, want)
		}
	}
}

// symmetricNetwork builds a random network in which every link is two
// opposite arcs of one whole capacity, as the auditor's is. The nodes fall
// into groups with no link between them; within a group some links carry
// zero, so a group's nodes may still be cut off from each other.
func symmetricNetwork(rng *rand.Rand) (f *FlowNetwork, groups [][]int) {
	n := 4 + rng.Intn(9)
	f = NewFlowNetwork(n)
	groups = make([][]int, 1+rng.Intn(3))
	for v := 0; v < n; v++ {
		g := rng.Intn(len(groups))
		groups[g] = append(groups[g], v)
	}
	for _, members := range groups {
		for i, u := range members {
			for _, v := range members[i+1:] {
				if rng.Intn(3) == 0 {
					continue
				}
				c := float64(rng.Intn(6)) // 0 is a bridge that carries nothing
				f.AddArc(u, v, c)
				f.AddArc(v, u, c)
			}
		}
	}
	return f, groups
}

// The auditor's worst-pair step rests on this: on symmetric arcs, the
// minimum max-flow over all pairs of a node set equals the minimum over
// the pairs that contain one fixed member, whichever member that is.
func TestFixedSourceMinEqualsAllPairsMin(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	flow := func(f *FlowNetwork, u, v int) float64 {
		f.Reset()
		return f.MaxFlow(u, v)
	}
	for trial := 0; trial < 200; trial++ {
		f, groups := symmetricNetwork(rng)
		for _, members := range groups {
			if len(members) < 2 {
				continue
			}
			all := math.Inf(1)
			for i, u := range members {
				for _, v := range members[i+1:] {
					all = math.Min(all, flow(f, u, v))
				}
			}
			for _, s := range members {
				fixed := math.Inf(1)
				for _, v := range members {
					if v != s {
						fixed = math.Min(fixed, flow(f, s, v))
					}
				}
				if fixed != all {
					t.Fatalf("trial %d, group %v: min over pairs from %d is %v, over all pairs %v",
						trial, members, s, fixed, all)
				}
			}
		}
	}
}

// The auditor's worst-pair step also rests on this: the flows from one
// source on the whole network bracket the flows on the network less a set
// of edges, without running them. Per target v, with λ₀ the kept flow's
// value, x[e] the net flow it left on edge e (its two arcs' flows
// cancelled) and S the source side of its minimum cut:
//
//	λ₀ − Σ_{e∈C} x[e]  ≤  λ_C  ≤  λ₀ − Σ_{e∈C, one end in S} cap(e)
//
// and the minimum over the targets is found by running only those the
// bounds leave open. Random undirected multigraphs on whole capacities,
// some zero; cut sets of up to four edges, now and then every edge of the
// source or of a target, or an ID no edge has.
func TestCutBoundsBracketMaxFlow(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	type edge struct {
		u, v   int
		c      float64
		ab, ba int // arc indices
	}
	ran, skipped, exact := 0, 0, 0
	for trial := 0; trial < 300; trial++ {
		n := 3 + rng.Intn(8)
		f := NewFlowNetwork(n)
		var edges []edge
		for m := n + rng.Intn(2*n); m > 0; m-- {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			c := float64(rng.Intn(6))
			edges = append(edges, edge{u, v, c, f.AddArc(u, v, c), f.AddArc(v, u, c)})
		}
		s := rng.Intn(n)

		// What is kept of the whole network's flows.
		flow0 := make([]float64, n)
		net := make([][]float64, n)
		side := make([][]bool, n)
		for v := 0; v < n; v++ {
			f.Reset()
			flow0[v] = f.MaxFlow(s, v)
			net[v] = make([]float64, len(edges))
			for i, e := range edges {
				net[v][i] = math.Abs(f.Flow(e.ab) - f.Flow(e.ba))
			}
			side[v] = f.MinCutInto(s, nil)
		}

		var cut []int
		switch rng.Intn(6) {
		case 0: // strand the source or a target
			x := rng.Intn(n)
			for i, e := range edges {
				if e.u == x || e.v == x {
					cut = append(cut, i)
				}
			}
		default:
			for k := rng.Intn(5); k > 0 && len(edges) > 0; k-- {
				if i := rng.Intn(len(edges)); !slices.Contains(cut, i) {
					cut = append(cut, i)
				}
			}
		}
		if rng.Intn(4) == 0 {
			cut = append(cut, len(edges)+rng.Intn(3), -1)
		}
		live := func(i int) bool { return i >= 0 && i < len(edges) }
		for _, i := range cut {
			if live(i) {
				f.SetCapacity(edges[i].ab, 0)
				f.SetCapacity(edges[i].ba, 0)
			}
		}

		lo, hi := make([]float64, n), make([]float64, n)
		upper, want := math.Inf(1), math.Inf(1)
		for v := 0; v < n; v++ {
			if v == s {
				continue
			}
			lo[v], hi[v] = flow0[v], flow0[v]
			for _, i := range cut {
				if !live(i) {
					continue
				}
				lo[v] -= net[v][i]
				if e := edges[i]; side[v][e.u] != side[v][e.v] {
					hi[v] -= e.c
				}
			}
			f.Reset()
			got := f.MaxFlow(s, v)
			if got < lo[v] || got > hi[v] {
				t.Fatalf("trial %d, %d -> %d without %v: flow %v outside [%v, %v] (whole network %v)",
					trial, s, v, cut, got, lo[v], hi[v], flow0[v])
			}
			upper, want = math.Min(upper, hi[v]), math.Min(want, got)
		}
		worst := math.Inf(1)
		for v := 0; v < n; v++ {
			switch {
			case v == s:
			case lo[v] == hi[v]:
				worst = math.Min(worst, lo[v])
				exact++
			case lo[v] >= math.Min(upper, worst):
				skipped++
			default:
				f.Reset()
				worst = math.Min(worst, f.MaxFlow(s, v))
				ran++
			}
		}
		if worst != want {
			t.Fatalf("trial %d, source %d without %v: minimum %v from the exact and the computed flows, %v from all of them",
				trial, s, cut, worst, want)
		}
	}
	if ran == 0 || skipped == 0 || exact == 0 {
		t.Errorf("%d flows ran, %d were passed over and %d known exactly; the networks do not cover the three", ran, skipped, exact)
	}
}

// clear leaves a network that behaves as a new one of the size asked for,
// whatever it held before and whether it shrank or grew.
func TestClearMatchesNew(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	kept := new(FlowNetwork) // the zero value is the empty network
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(12)
		kept.clear(n)
		fresh := NewFlowNetwork(n)
		if kept.n != n {
			t.Fatalf("trial %d: NumNodes = %d after clear(%d)", trial, kept.n, n)
		}
		for i := rng.Intn(4 * n); i > 0; i-- {
			u, v, c := rng.Intn(n), rng.Intn(n), rng.Float64()*10
			if a, b := kept.AddArc(u, v, c), fresh.AddArc(u, v, c); a != b {
				t.Fatalf("trial %d: arc index %d on the cleared network, %d on a new one", trial, a, b)
			}
		}
		s, tt := rng.Intn(n), rng.Intn(n)
		if got, want := kept.MaxFlow(s, tt), fresh.MaxFlow(s, tt); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: MaxFlow = %v on the cleared network, %v on a new one", trial, got, want)
		}
	}
}

// SetCapacity followed by Reset is the network built with that capacity
// in the first place; setting the old capacity back restores it.
func TestSetCapacityMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 100; trial++ {
		n := 3 + rng.Intn(8)
		type link struct {
			u, v int
			c    float64
		}
		links := make([]link, 2+rng.Intn(3*n))
		f := NewFlowNetwork(n)
		idx := make([]int, len(links))
		for i := range links {
			links[i] = link{rng.Intn(n), rng.Intn(n), float64(rng.Intn(9))}
			idx[i] = f.AddArc(links[i].u, links[i].v, links[i].c)
		}
		s, tt := 0, n-1
		whole := f.MaxFlow(s, tt)

		// Take some arcs down, as a failure scenario does.
		down := make(map[int]bool)
		for k := rng.Intn(len(links)); k > 0; k-- {
			i := rng.Intn(len(links))
			down[i] = true
			f.SetCapacity(idx[i], 0)
		}
		rebuilt := NewFlowNetwork(n)
		for i, l := range links {
			if down[i] {
				l.c = 0
			}
			rebuilt.AddArc(l.u, l.v, l.c)
		}
		f.Reset()
		if got, want := f.MaxFlow(s, tt), rebuilt.MaxFlow(s, tt); got != want {
			t.Fatalf("trial %d: MaxFlow = %v with arcs set to zero, %v rebuilt without them", trial, got, want)
		}
		for i := range down {
			if f.Flow(idx[i]) != 0 {
				t.Fatalf("trial %d: a zero-capacity arc carries %v", trial, f.Flow(idx[i]))
			}
			f.SetCapacity(idx[i], links[i].c)
		}
		f.Reset()
		if got := f.MaxFlow(s, tt); got != whole {
			t.Fatalf("trial %d: MaxFlow = %v after restoring, %v before", trial, got, whole)
		}
	}

	// On a network that carries no flow the new capacity counts at once.
	f := NewFlowNetwork(2)
	a := f.AddArc(0, 1, 3)
	f.SetCapacity(a, 7)
	if got := f.MaxFlow(0, 1); got != 7 {
		t.Errorf("MaxFlow = %v right after SetCapacity(7), want 7", got)
	}
	for _, bad := range []float64{-1, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SetCapacity(%v) did not panic", bad)
				}
			}()
			f.SetCapacity(a, bad)
		}()
	}
}

// A warmed network runs Reset and MaxFlow — and clear and a refill of no
// more arcs than it has held — without allocating.
func TestFlowNetworkSteadyStateZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	f, _ := symmetricNetwork(rng)
	n := f.n
	f.MaxFlow(0, n-1)
	if avg := testing.AllocsPerRun(20, func() {
		f.Reset()
		f.MaxFlow(0, n-1)
	}); avg != 0 {
		t.Errorf("warmed Reset+MaxFlow allocated %v per run, want 0", avg)
	}

	fill := func() {
		f.clear(n)
		for u := 0; u+1 < n; u++ {
			f.AddArc(u, u+1, 2)
			f.AddArc(u+1, u, 2)
		}
		f.MaxFlow(0, n-1)
	}
	fill()
	if avg := testing.AllocsPerRun(20, fill); avg != 0 {
		t.Errorf("warmed clear+AddArc+MaxFlow allocated %v per run, want 0", avg)
	}
}
