package plan

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"iris/internal/fibermap"
	"iris/internal/graph"
)

// reuseChecker drives one long-lived evaluator and, after every Route,
// compares it with an evaluator whose every tree was computed for the cut
// at hand by DijkstraInto — no kept tree, no memoised one.
type reuseChecker struct {
	t       *testing.T
	label   string
	ev, ref *Evaluator
	dijk    graph.Scratch
	routed  int // Route calls checked
	partial int // of them, scenarios that lost a pair
}

func newReuseChecker(t *testing.T, label string, in Input) *reuseChecker {
	in.Base = BaseGraph(in.Map)
	return &reuseChecker{t: t, label: label, ev: NewEvaluator(in), ref: NewEvaluator(in)}
}

// route calls Route on the long-lived evaluator and checks every route.
func (c *reuseChecker) route() []Route {
	c.t.Helper()
	got := c.ev.Route()

	ref := c.ref
	ref.Cut.Set(c.ev.Cut.IDs())
	sources := ref.dcs
	if len(ref.hubs) > 0 {
		sources = ref.hubs
	}
	for si, s := range sources {
		ref.trees[si] = ref.base.DijkstraInto(s, ref.Cut.Skip(), new(graph.ShortestPathTree), &c.dijk)
	}
	want := ref.readRoutes()

	if len(got) != len(want) {
		c.t.Fatalf("%s, cut %v: %d routes, recomputed %d", c.label, c.ev.Cut.IDs(), len(got), len(want))
	}
	for i := range want {
		g, w := &got[i], &want[i]
		if g.PairIdx != w.PairIdx || g.Pair != w.Pair || g.I != w.I || g.J != w.J ||
			math.Float64bits(g.TotalKM) != math.Float64bits(w.TotalKM) ||
			!slices.Equal(g.Nodes, w.Nodes) || !slices.Equal(g.Ducts, w.Ducts) {
			c.t.Fatalf("%s, cut %v, pair %v:\n reused     %v %v %v\n recomputed %v %v %v",
				c.label, c.ev.Cut.IDs(), w.Pair, g.Nodes, g.Ducts, g.TotalKM, w.Nodes, w.Ducts, w.TotalKM)
		}
	}
	c.routed++
	if len(got) < c.ev.NumPairs() {
		c.partial++
	}
	return got
}

// dfs is the planner's pruned scenario DFS: only ducts some route uses
// seed the next cut, pushed and popped on the one Cut.
func (c *reuseChecker) dfs(depth int) {
	routes := c.route()
	if depth == 0 {
		return
	}
	var used []int
	for i := range routes {
		for _, e := range routes[i].Ducts {
			used = append(used, e.ID)
		}
	}
	slices.Sort(used)
	for _, d := range slices.Compact(used) {
		if c.ev.Cut.Has(d) {
			continue
		}
		c.ev.Cut.Push(d)
		c.dfs(depth - 1)
		c.ev.Cut.Pop(d)
	}
}

// setSequence walks Cut.Set through cuts that grow, shrink, repeat and
// jump to unrelated ducts, with now and then every duct of one DC cut (so
// pairs lose their path) and an ID the graph has no duct for.
func (c *reuseChecker) setSequence(rng *rand.Rand, steps int) {
	edges := c.ev.base.Edges()
	pick := func() int { return edges[rng.Intn(len(edges))].ID }
	var cut []int
	for step := 0; step < steps; step++ {
		switch k := rng.Intn(10); {
		case k < 3: // grow
			cut = append(cut, pick())
		case k < 5 && len(cut) > 0: // shrink
			i := rng.Intn(len(cut))
			cut = append(cut[:i], cut[i+1:]...)
		case k < 6: // repeat
		case k < 7: // strand a DC, on top of what is cut
			dc := c.ev.dcs[rng.Intn(c.ev.nDC)]
			c.ev.base.Neighbors(dc, func(e graph.Edge) { cut = append(cut, e.ID) })
		case k < 8: // an ID outside the graph rides along
			cut = append(cut, c.ev.base.MaxEdgeID()+1+rng.Intn(3))
		default: // unrelated
			cut = cut[:0]
			for n := rng.Intn(4); n > 0; n-- {
				cut = append(cut, pick())
			}
		}
		if len(cut) > 8 {
			cut = cut[:0]
		}
		rng.Shuffle(len(cut), func(i, j int) { cut[i], cut[j] = cut[j], cut[i] })
		c.ev.Cut.Set(cut)
		c.route()
	}
}

// TestRouteReuseMatchesRecompute binds the tree-reuse rule: whatever
// scenarios an evaluator has been through, Route returns what a
// recomputation of every tree returns, bit for bit.
func TestRouteReuseMatchesRecompute(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		in := arenaInput(t, seed, 8, 8, 2)
		hubbed := arenaInput(t, seed, 6, 8, 2)
		h1, h2 := fibermap.ChooseHubs(hubbed.Map, 5)
		hubbed.ViaHubs = []int{h1, h2}

		for _, tc := range []struct {
			label string
			in    Input
		}{{"distributed", in}, {"via-hub", hubbed}} {
			c := newReuseChecker(t, tc.label, tc.in)
			rng := rand.New(rand.NewSource(seed))
			// Interleaved, so each walk meets trees the other kept.
			c.setSequence(rng, 150)
			c.dfs(2)
			c.setSequence(rng, 150)
			c.dfs(2)
			if c.partial == 0 {
				t.Errorf("%s seed %d: no scenario of %d lost a pair; the case does not cover unreachable DCs",
					tc.label, seed, c.routed)
			}
		}
	}
}
