package plan

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"iris/internal/fibermap"
	"iris/internal/graph"
	"iris/internal/hose"
	"iris/internal/optics"
)

// oracle is the evaluator the frames, crossing sets and tree repairs
// replaced, kept as the reference they are held to: every tree computed
// for the cut at hand by DijkstraInto, every route read off those trees,
// every duct's crossing list rebuilt from those routes and loaded on an LP
// of its own. It borrows an Evaluator's region tables and nothing else.
type oracle struct {
	region *Evaluator
	dijk   graph.Scratch
	routes []Route // one slot per pair, as Evaluator.Route returns
	riders []rider // as Evaluator.ride records them
	lp     hose.LP
}

func (o *oracle) rides(pairIdx int32, duct int) bool {
	return slices.Contains(o.riders, rider{duct: int32(duct), pairIdx: pairIdx})
}

// readRoutes reads every pair's route under the cut off fresh trees.
func (o *oracle) readRoutes(cut *graph.Cut) []Route {
	ev := o.region
	trees := make([]*graph.ShortestPathTree, len(ev.sources))
	for si, s := range ev.sources {
		trees[si] = ev.base.DijkstraInto(s, cut.Skip(), new(graph.ShortestPathTree), &o.dijk)
	}
	o.routes = o.routes[:0]
	for i := range ev.dcs {
		for j := i + 1; j < ev.nDC; j++ {
			a, b := ev.dcs[i], ev.dcs[j]
			o.routes = append(o.routes, Route{
				Pair: hose.Pair{A: a, B: b}, I: int32(i), J: int32(j), PairIdx: int32(ev.pairIdx(i, j)),
			})
			r := &o.routes[len(o.routes)-1]
			if len(ev.hubs) == 0 {
				if t := trees[i]; !math.IsInf(t.Dist[b], 1) {
					r.Nodes, r.Ducts, _ = t.AppendPathTo(b, nil, nil)
					r.TotalKM = t.Dist[b]
				}
				continue
			}
			best := graph.Inf
			var bt *graph.ShortestPathTree
			for _, t := range trees {
				if d := t.Dist[a] + t.Dist[b]; d < best && d < graph.Inf {
					best, bt = d, t
				}
			}
			if bt == nil {
				continue
			}
			legN, legE, _ := bt.AppendPathTo(a, nil, nil)
			slices.Reverse(legN)
			slices.Reverse(legE)
			toN, toE, _ := bt.AppendPathTo(b, nil, nil)
			r.Nodes = append(legN, toN[1:]...)
			r.Ducts = append(legE, toE...)
			r.TotalKM = best
		}
	}
	return o.routes
}

// load rebuilds every duct's crossing list from the routes last read and
// applies the provisioning rule, as Evaluator.Load documents it.
func (o *oracle) load(caps []float64, active []bool) []DuctLoad {
	if caps == nil {
		caps = o.region.caps
	}
	nDucts := o.region.base.MaxEdgeID() + 1
	cross := make([][]crossEntry, nDucts)
	resid := make([]int, nDucts)
	for ri := range o.routes {
		r := &o.routes[ri]
		if active != nil && !active[r.PairIdx] {
			continue
		}
		for _, e := range r.Ducts {
			resid[e.ID]++
			if o.rides(r.PairIdx, e.ID) {
				continue
			}
			entries := cross[e.ID]
			if n := len(entries); n > 0 && entries[n-1].pairIdx == r.PairIdx {
				entries[n-1].count++
			} else {
				cross[e.ID] = append(entries, crossEntry{pairIdx: r.PairIdx, count: 1})
			}
		}
	}
	var loads []DuctLoad
	for id, n := range resid {
		if n == 0 {
			continue
		}
		l := DuctLoad{Duct: id, ResidualPairs: n}
		if len(cross[id]) > 0 {
			var pairs []hose.Pair
			extra := 0.0
			for _, en := range cross[id] {
				p := o.region.pairPos[en.pairIdx]
				pairs = append(pairs, p)
				if en.count > 1 {
					extra += float64(en.count-1) * math.Min(caps[p.A], caps[p.B])
				}
			}
			l.BasePairs = pairsFor(o.lp.WorstCaseLoad(caps, pairs) + extra)
		}
		loads = append(loads, l)
	}
	return loads
}

// reuseChecker drives one long-lived evaluator and, after every step,
// compares its routes and loads with the oracle's, and its loads with
// those of an evaluator built for the step.
type reuseChecker struct {
	t       *testing.T
	label   string
	in      Input
	ev      *Evaluator
	oracle  oracle
	rng     *rand.Rand
	routed  int // steps checked
	partial int // of them, scenarios that lost a pair
	doubled int // of them, scenarios in which a pair crosses a duct twice
	ridden  int // of them, scenarios loaded with a cut-through rider
	spans   int // slots met whose route has a segment over the span limit
	budgets int // slots met whose route is over the switching budget
	below   int // trees met exact for a frame under the top one
}

func newReuseChecker(t *testing.T, label string, in Input, seed int64) *reuseChecker {
	in.Base = BaseGraph(in.Map)
	ev := newEvaluator(in)
	return &reuseChecker{t: t, label: label, in: in, ev: ev, oracle: oracle{region: ev}, rng: rand.New(rand.NewSource(seed))}
}

// route calls Route on the long-lived evaluator — now and then twice —
// and checks every pair's slot, then the loads.
func (c *reuseChecker) route() []Route {
	c.t.Helper()
	got := c.ev.Route()
	if c.rng.Intn(4) == 0 {
		got = c.ev.Route()
	}
	want := c.oracle.readRoutes(c.ev.Cut)

	if len(got) != len(want) {
		c.t.Fatalf("%s, cut %v: %d slots, recomputed %d", c.label, c.ev.Cut.IDs(), len(got), len(want))
	}
	lost := false
	for i := range want {
		g, w := &got[i], &want[i]
		if g.PairIdx != w.PairIdx || g.Pair != w.Pair || g.I != w.I || g.J != w.J ||
			math.Float64bits(g.TotalKM) != math.Float64bits(w.TotalKM) ||
			g.Routed() != (len(w.Nodes) > 0) || !slices.Equal(g.Nodes, w.Nodes) || !slices.Equal(g.Ducts, w.Ducts) {
			c.t.Fatalf("%s, cut %v, pair %v:\n reused     %v %v %v\n recomputed %v %v %v",
				c.label, c.ev.Cut.IDs(), w.Pair, g.Nodes, g.Ducts, g.TotalKM, w.Nodes, w.Ducts, w.TotalKM)
		}
		lost = lost || !g.Routed()

		// What the planner opens a scenario from — the verdicts kept with
		// the slot and in the flagged sets, the amplifier sites kept with
		// it — against a full scan of the recomputed route: the optical
		// model's own evaluation, and a span walk per interior node.
		pr := &pathRec{Route: w, ampNode: -1}
		el := optics.Evaluate(elementsFor(pr))
		var want verdict
		if el.WorstSegDB > optics.AmpGainDB+1e-9 {
			want |= overSpan
			c.spans++
		}
		if w.TotalKM > optics.MaxPathKM+1e-9 {
			want |= overSLA
		}
		if el.OSSCount > optics.MaxOSSPerPath {
			want |= overOSS
			c.budgets++
		}
		for k := verdict(1); k < 1<<nVerdicts; k <<= 1 {
			if flagged := hasBit(c.ev.flaggedSet(k), w.PairIdx); g.verdicts&k != want&k || flagged != (want&k != 0) {
				c.t.Fatalf("%s, cut %v, pair %v: verdict %b kept %v, flagged %v, want %v (worst segment %.2f dB, %.1f km, %d switch traversals)",
					c.label, c.ev.Cut.IDs(), w.Pair, k, g.verdicts&k != 0, flagged, want&k != 0, el.WorstSegDB, w.TotalKM, el.OSSCount)
			}
		}
		// Sites are asked for now and then, so some are kept across
		// frames, some found late and some never.
		if c.rng.Intn(3) == 0 {
			var sites []int
			if want&overSpan != 0 {
				for _, v := range w.Nodes[1 : len(w.Nodes)-1] {
					pr.ampNode = v
					if optics.Evaluate(elementsFor(pr)).WorstSegDB <= optics.AmpGainDB+1e-9 {
						sites = append(sites, v)
					}
				}
			}
			if kept := c.ev.ampSites(g); !slices.Equal(kept, sites) {
				c.t.Fatalf("%s, cut %v, pair %v: amplifier sites %v, the optical model clears the path at %v",
					c.label, c.ev.Cut.IDs(), w.Pair, kept, sites)
			}
		}
		if n := ossTraversals(&pathRec{Route: g, ampNode: -1}); n != el.OSSCount {
			c.t.Fatalf("%s, cut %v, pair %v: %d switch traversals in closed form, %d on the path's elements",
				c.label, c.ev.Cut.IDs(), w.Pair, n, el.OSSCount)
		}
	}
	c.routed++
	if lost {
		c.partial++
	}
	c.trees()
	c.loads(got)
	return got
}

// trees compares every tree the evaluator holds — those the step brought
// to the cut, and those an undo put back under it — with DijkstraInto's
// under the cut of the frame the tree records, node by node: distance
// bits, hops and the path.
func (c *reuseChecker) trees() {
	c.t.Helper()
	ev := c.ev
	top := len(ev.frames) - 1
	cut := graph.NewCut(ev.base)
	var ids []int
	var gotN, wantN []int
	var gotE, wantE []graph.Edge
	for si, t := range ev.trees {
		if t == nil {
			continue
		}
		d := ev.depth[si]
		if d > top {
			c.t.Fatalf("%s, cut %v: source %d's tree is exact for frame %d of %d", c.label, ev.Cut.IDs(), si, d, top)
		}
		if d < top {
			c.below++
		}
		ids = ids[:0]
		for _, f := range ev.frames[1 : d+1] {
			ids = append(ids, f.ids...)
		}
		cut.Set(ids)
		want := ev.base.DijkstraInto(ev.sources[si], cut.Skip(), new(graph.ShortestPathTree), &c.oracle.dijk)
		for v := range want.Dist {
			gotN, gotE, _ = t.AppendPathTo(v, gotN[:0], gotE[:0])
			wantN, wantE, _ = want.AppendPathTo(v, wantN[:0], wantE[:0])
			if math.Float64bits(t.Dist[v]) != math.Float64bits(want.Dist[v]) || t.Hops[v] != want.Hops[v] ||
				!slices.Equal(gotN, wantN) || !slices.Equal(gotE, wantE) {
				c.t.Fatalf("%s, cut %v, source %d exact for frame %d (cut %v), node %d:\n kept      %v %d %v\n Dijkstra  %v %d %v",
					c.label, ev.Cut.IDs(), ev.sources[si], d, ids, v, t.Dist[v], t.Hops[v], gotE, want.Dist[v], want.Hops[v], wantE)
			}
		}
	}
}

// loads compares Load under the region's hose and under a random matrix's
// with the oracle's and with a fresh evaluator's. Two steps in three, a
// few pairs first ride cut-throughs on some of their ducts (and one on a
// duct not its own), as placeCutThroughs leaves them; the next Route
// takes the riders off again.
func (c *reuseChecker) loads(got []Route) {
	c.t.Helper()
	rng := c.rng
	fresh := newEvaluator(c.in)
	fresh.Cut.Set(c.ev.Cut.IDs())
	fresh.Route()
	c.oracle.riders = c.oracle.riders[:0]
	ride := func(p int32, duct int) {
		if !c.oracle.rides(p, duct) {
			c.ev.ride(p, duct)
			fresh.ride(p, duct)
			c.oracle.riders = append(c.oracle.riders, rider{duct: int32(duct), pairIdx: p})
		}
	}
	if rng.Intn(3) > 0 {
		for n := 1 + rng.Intn(4); n > 0; n-- {
			p := int32(rng.Intn(len(got)))
			for _, e := range got[p].Ducts {
				if rng.Intn(2) == 0 {
					ride(p, e.ID)
					c.ridden++
				}
			}
			ride(p, rng.Intn(c.ev.base.MaxEdgeID()+1))
		}
	}
	for id := range c.ev.multi {
		if len(c.ev.multi[id]) > 0 {
			c.doubled++
			break
		}
	}

	caps := make([]float64, c.ev.nDC)
	for i := range caps {
		caps[i] = rng.Float64() * 2 * c.ev.caps[i]
	}
	active := make([]bool, c.ev.NumPairs())
	for i := range active {
		active[i] = rng.Intn(3) > 0
	}
	check := func(what string, caps []float64, active []bool) {
		c.t.Helper()
		g, w, f := c.ev.Load(caps, active), c.oracle.load(caps, active), fresh.Load(caps, active)
		if !slices.Equal(g, w) || !slices.Equal(f, w) {
			c.t.Fatalf("%s, cut %v, %s:\n reused  %v\n fresh   %v\n rebuilt %v", c.label, c.ev.Cut.IDs(), what, g, f, w)
		}
	}
	check("region hose", nil, nil)
	check("matrix hose", caps, active)
	check("matrix caps, every pair", caps, nil)
	check("region hose again", nil, nil)
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
// pairs lose their path) and an ID the graph has no duct for, past its
// last or negative.
func (c *reuseChecker) setSequence(steps int) {
	rng := c.rng
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
			for _, e := range c.ev.base.Edges() {
				if e.U == dc || e.V == dc {
					cut = append(cut, e.ID)
				}
			}
		case k < 8: // an ID outside the graph rides along
			if rng.Intn(2) == 0 {
				cut = append(cut, c.ev.base.MaxEdgeID()+1+rng.Intn(3))
			} else {
				cut = append(cut, -1-rng.Intn(3))
			}
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

// TestRouteReuseMatchesRecompute binds what the evaluator carries from one
// scenario to the next — routes across frames, crossing sets and needs
// across loads, trees across repairs and undos: whatever scenarios an
// evaluator has been through, every tree it holds is DijkstraInto's for
// the cut of its frame, and Route and Load return what a recomputation of
// every tree, route and crossing list returns, bit for bit.
func TestRouteReuseMatchesRecompute(t *testing.T) {
	doubled, spans, budgets, below := 0, 0, 0, 0
	for seed := int64(1); seed <= 4; seed++ {
		in := arenaInput(t, seed, 8, 8, 2)
		hubbed := arenaInput(t, seed, 6, 8, 2)
		h1, h2 := fibermap.ChooseHubs(hubbed.Map, 5)
		hubbed.ViaHubs = []int{h1, h2}

		type reuseCase struct {
			label        string
			in           Input
			steps, depth int
		}
		cases := []reuseCase{{"distributed", in, 150, 2}, {"via-hub", hubbed, 150, 2}}
		if seed == 4 {
			// The one region here whose plan needs cut-throughs: routes
			// long enough to be over the switching budget.
			cases = append(cases, reuseCase{"distributed, 24 DCs", arenaInput(t, seed, 24, 8, 2), 40, 1})
		}
		for _, tc := range cases {
			c := newReuseChecker(t, tc.label, tc.in, seed)
			// Interleaved, so each walk meets trees the other kept.
			c.setSequence(tc.steps)
			c.dfs(tc.depth)
			c.setSequence(tc.steps)
			c.dfs(tc.depth)
			if c.partial == 0 || c.ridden == 0 {
				t.Errorf("%s seed %d: of %d scenarios %d lost a pair and %d cut-through riders were loaded; the case does not cover them",
					tc.label, seed, c.routed, c.partial, c.ridden)
			}
			doubled += c.doubled
			spans += c.spans
			budgets += c.budgets
			below += c.below
		}
	}
	if doubled == 0 {
		t.Error("no via-hub walk crossed a duct twice; the cases do not cover multiplicity")
	}
	if below == 0 {
		t.Error("no tree was kept exact for a frame under the top one; the cases do not cover trees an undo put back")
	}
	if spans == 0 || budgets == 0 {
		t.Errorf("%d routes were over the span limit and %d over the switching budget; the cases do not cover the opening scans", spans, budgets)
	}
}

// An evaluator a plan hands out starts where planning left off: on the
// graph the plan was routed on, with a hose-load memo of its own that
// planning filled; so does a Fork of it, which is how the auditor's
// workers start. Its failure-free routes are the plan's paths, at every
// tolerance. On the bench region planned for two cuts each routes and
// loads the failure-free scenario, every single cut and 200 random double
// cuts exactly as an evaluator built from nothing does, and runs at most
// one max-flow in ten scenarios (the cold one runs several per scenario).
func TestPlanEvaluatorStartsFromPlan(t *testing.T) {
	for k := range 2 {
		pl, err := New(arenaInput(t, 1, 20, 10, k))
		if err != nil {
			t.Fatal(err)
		}
		routesArePaths(t, pl)
	}
	in := arenaInput(t, 1, 20, 10, 2)
	p := NewPlanner()
	pl, err := p.Plan(in)
	if err != nil {
		t.Fatal(err)
	}
	routesArePaths(t, pl)
	ev := pl.NewEvaluator()
	forked := ev.Fork()
	for _, c := range []struct {
		label     string
		ev, owner *Evaluator
	}{{"the plan's evaluator", ev, p.ev}, {"its fork", forked, ev}} {
		if c.ev.base != p.ev.base || pl.Input.Base != p.ev.base {
			t.Fatalf("%s does not route on the graph planning ran on", c.label)
		}
		if m, o := c.ev.memo, c.owner.memo; len(m.loads) != len(p.ev.memo.loads) || len(m.loads) == 0 ||
			&m.loads[0] == &o.loads[0] || &m.idx.table[0] == &o.idx.table[0] || &m.idx.slab[0] == &o.idx.slab[0] {
			t.Fatalf("%s holds %d memoised loads, planning %d, not in storage of its own",
				c.label, len(m.loads), len(p.ev.memo.loads))
		}
	}
	cold := newEvaluator(in)

	edges := ev.base.Edges()
	scenarios := [][]int{nil}
	for _, e := range edges {
		scenarios = append(scenarios, []int{e.ID})
	}
	rng := rand.New(rand.NewSource(1))
	for len(scenarios) < 1+len(edges)+200 {
		a, b := edges[rng.Intn(len(edges))].ID, edges[rng.Intn(len(edges))].ID
		if a != b {
			scenarios = append(scenarios, []int{a, b})
		}
	}
	for _, cut := range scenarios {
		cold.Cut.Set(cut)
		want := cold.Route()
		wantLoads := slices.Clone(cold.Load(nil, nil))
		for _, e := range []*Evaluator{ev, forked} {
			e.Cut.Set(cut)
			got := e.Route()
			for i := range want {
				if !slices.Equal(got[i].Nodes, want[i].Nodes) || !slices.Equal(got[i].Ducts, want[i].Ducts) ||
					math.Float64bits(got[i].TotalKM) != math.Float64bits(want[i].TotalKM) {
					t.Fatalf("cut %v, pair %v: route %v, from nothing %v", cut, want[i].Pair, got[i].Ducts, want[i].Ducts)
				}
			}
			if g := e.Load(nil, nil); !slices.Equal(g, wantLoads) {
				t.Fatalf("cut %v: loads\n %v\nfrom nothing\n %v", cut, g, wantLoads)
			}
		}
	}
	n := float64(len(scenarios))
	t.Logf("%d scenarios: %.3f max-flows per scenario from the plan, %.3f from its fork, %.3f from nothing",
		len(scenarios), float64(ev.work.lps)/n, float64(forked.work.lps)/n, float64(cold.work.lps)/n)
	if per := float64(ev.work.lps+forked.work.lps) / n; per > 0.1 {
		t.Errorf("the plan's evaluator and its fork ran %.3f max-flows per scenario, want at most 0.1", per)
	}
}

// routesArePaths checks that the plan's evaluator, at the empty cut,
// routes the pairs Plan.Paths holds, on the same nodes and ducts, and that
// Crossing lists the pairs whose planned path rides one of the ducts
// asked for: the allocator's cascade accounting reads them there, and the
// fabric sets circuits up along Plan.Paths.
func routesArePaths(t *testing.T, pl *Plan) {
	t.Helper()
	k := pl.Input.MaxFailures
	ev := pl.NewEvaluator()
	routes := ev.Route()
	routed := 0
	for _, r := range routes {
		info, ok := pl.Paths[r.Pair]
		if r.Routed() != ok {
			t.Fatalf("k=%d, pair %v: routed %v, planned path %v", k, r.Pair, r.Routed(), ok)
		}
		if !ok {
			continue
		}
		routed++
		ducts := make([]int, len(r.Ducts))
		for i, e := range r.Ducts {
			ducts[i] = e.ID
		}
		if !slices.Equal(r.Nodes, info.Nodes) || !slices.Equal(ducts, info.Ducts) {
			t.Fatalf("k=%d, pair %v: route %v over %v, planned %v over %v", k, r.Pair, r.Nodes, ducts, info.Nodes, info.Ducts)
		}
	}
	if routed != len(pl.Paths) {
		t.Fatalf("k=%d: %d pairs routed, %d planned paths", k, routed, len(pl.Paths))
	}

	edges := ev.base.Edges()
	for i, e := range edges {
		// One duct, then three (one of them twice, out of order).
		for _, ducts := range [][]int{{e.ID}, {edges[(i+7)%len(edges)].ID, e.ID, edges[(i+3)%len(edges)].ID, e.ID}} {
			var want []int32
			for _, r := range routes {
				if info := pl.Paths[r.Pair]; info != nil && slices.ContainsFunc(info.Ducts, func(d int) bool { return slices.Contains(ducts, d) }) {
					want = append(want, r.PairIdx)
				}
			}
			if got := ev.Crossing(ducts, nil); !slices.Equal(got, want) {
				t.Fatalf("k=%d: Crossing(%v) = %v, pairs riding them %v", k, ducts, got, want)
			}
		}
	}
}
