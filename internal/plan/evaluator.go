package plan

import (
	"math"
	"math/bits"
	"slices"

	"iris/internal/graph"
	"iris/internal/hose"
	"iris/internal/optics"
)

// This file is the scenario evaluator: the one implementation of the
// kernel of Algorithm 1 (§4.1) — with these ducts cut, route every DC
// pair on its shortest surviving path, then load every crossed duct under
// the hose model. The planner maximises its output over the scenarios it
// enumerates; the chaos auditor and the robust verifier compare it with
// what a finished plan provisioned.
//
// The evaluator keeps the scenario between calls, and a new scenario costs
// what its cut touches. Three things are carried over, on one argument —
// with deterministic tie-breaking, removing a duct no selected path uses
// cannot change a selected path: the path survives, and every rival label
// only got worse.
//
//   - Routes live one slot per pair. Route diffs Cut against a stack of
//     frames: it undoes the frames the cut no longer contains from their
//     logs of replaced routes, then pushes one frame for the ducts the cut
//     gained, re-routing exactly the pairs that cross one of them. What
//     only the route decides is kept with it: its optical verdicts, each
//     also a set over pair indices (flagged), and, once asked for, where
//     one amplifier would clear a segment over the span limit. So the
//     planner opens a scenario from the routes the verdicts pick, and
//     probes amplifier sites only on routes the cut changed.
//   - Crossing sets are bitsets over pair indices, one per duct, so moving
//     a pair is a bit per duct; Load recomputes the ducts whose set changed
//     and lists the rest from the need it computed before.
//   - Shortest-path trees live one per source on the same stack. A tree
//     records the frame it is exact for; a source asked for under a higher
//     frame is repaired in place below the ducts of the frames in between
//     (graph.Repair), and the labels it overwrote go on the top frame's
//     log, so undoing that frame puts the tree back. Siblings in the
//     planner's DFS share their parent's repairs.
//
// Everything is held in flat arenas, so a warmed evaluator routes and
// loads a scenario without allocating.

// Route is one DC pair's slot in the evaluator's current scenario. Its
// slices live in the evaluator and are overwritten by later Route calls.
type Route struct {
	Pair    hose.Pair
	I, J    int32 // positions of Pair.A and Pair.B in Evaluator.DCs
	PairIdx int32 // dense index of the pair, see Evaluator.PairIndex
	Nodes   []int
	Ducts   []graph.Edge
	TotalKM float64

	// What only the route decides, kept with it: the verdicts push reads
	// with the route, and Algorithm 2's candidates once ampSites found
	// them (sitesRead). Undo puts back what the slot held.
	verdicts  verdict
	sites     []int
	sitesRead bool
}

// verdict is a set of the optical checks a route fails with no amplifier
// and no bypass on it.
type verdict uint8

const (
	overSpan  verdict = 1 << iota // a segment is over the unamplified span limit (TC1)
	overSLA                       // the path is longer than the SLA distance
	overOSS                       // switched at every node, over the switching budget (TC4)
	nVerdicts = iota
)

// verdictsOf runs the checks of verdict on a route just read.
func (ev *Evaluator) verdictsOf(r *Route) verdict {
	var v verdict
	if ev.spanExceeded(r, -1) {
		v |= overSpan
	}
	if r.TotalKM > optics.MaxPathKM+1e-9 {
		v |= overSLA
	}
	if max(2, len(r.Ducts)+1) > optics.MaxOSSPerPath {
		v |= overOSS
	}
	return v
}

// ampSites returns the route's Algorithm 2 candidates: the interior nodes
// whose amplifier leaves no segment over the span limit, in path order.
// They are found on the first call after the route was read and kept on
// the slot, so an evaluator nobody places amplifiers with never walks for
// them. A list kept under a later frame than the route's stays right when
// that frame is undone: it depends on the route alone.
func (ev *Evaluator) ampSites(r *Route) []int {
	if !r.sitesRead {
		r.sites, r.sitesRead = r.sites[:0], true
		if r.verdicts&overSpan != 0 {
			for _, v := range r.Nodes[1 : len(r.Nodes)-1] {
				if !ev.spanExceeded(r, v) {
					r.sites = append(r.sites, v)
				}
			}
		}
	}
	return r.sites
}

// Routed reports whether the scenario leaves the pair a path. The slot of
// a pair it disconnects has no nodes, no ducts and zero length: Algorithm
// 1 owes the pair no capacity.
func (r *Route) Routed() bool { return len(r.Nodes) > 0 }

// DuctLoad is what one scenario requires of one duct, in fiber-pairs.
type DuctLoad struct {
	Duct int
	// BasePairs is the switched capacity of Algorithm 1: the worst-case
	// hose load of the pairs crossing the duct, plus the full hose demand
	// of a pair for every crossing beyond its first (via-hub walks may
	// cross a duct twice; a sound upper bound on the weighted optimum).
	BasePairs int
	// ResidualPairs is the §4.3 fiber-switching overhead: one pair per
	// crossing, counted with multiplicity.
	ResidualPairs int
}

// pairsFor is the provisioning rule's rounding, stated once: the whole
// fiber-pairs (or amplifiers) that carry a worst-case load.
func pairsFor(load float64) int { return int(math.Ceil(load - 1e-9)) }

// crossEntry is one DC pair's crossing count on a duct, kept only for the
// pairs that cross it more than once.
type crossEntry struct {
	pairIdx int32
	count   int32
}

// rider is one pair riding a cut-through on one duct of its route.
type rider struct {
	duct, pairIdx int32
}

// frame is one step of the scenario stack: the ducts the cut gained at
// that step and what undoing the step puts back — the routes it replaced
// (nodes, ducts and amplifier sites in the frame's flat slabs), the need
// of every duct whose crossing set it was the first to change since that
// need was computed, and the tree labels its repairs overwrote. Frame 0 is
// the failure-free scenario and is never undone.
type frame struct {
	ids     []int
	saves   []routeSave
	nodes   []int
	ducts   []graph.Edge
	sites   []int
	needs   []DuctLoad
	labels  []graph.Label
	repairs []treeRepair
}

// treeRepair is one tree a frame repaired: the source number, the frame
// its tree was exact for before, and where its labels start in the
// frame's log.
type treeRepair struct {
	si, depth, off int32
}

type routeSave struct {
	pairIdx          int32
	nodeOff, nodeLen int32
	ductOff, ductLen int32
	siteOff, siteLen int32
	totalKM          float64
	verdicts         verdict
	sitesRead        bool
}

// evalWork counts what an evaluator did since it was built: scenarios
// routed, failure-free trees fetched, tree labels overwritten by repairs
// and put back by undo, routes read off trees, hose-memo lookups and the
// max-flows they missed into, and span walks — runs of spanExceeded, all
// of them on routes push reads. BenchmarkPlanK2Region20,
// BenchmarkPlanK3Region20 and TestPlanEvaluatorStartsFromPlan gate on it.
type evalWork struct {
	scenarios, fullTrees, relabelled, restored, routesRead, lookups, lps, spanWalks int
}

// hoseMemo is the worst-case hose load of every pair set looked up under
// the region's own capacities, by the set's interned ID.
type hoseMemo struct {
	idx   setIndex
	loads []float64
}

func (m *hoseMemo) clone() *hoseMemo {
	c := &hoseMemo{idx: m.idx, loads: slices.Clone(m.loads)}
	c.idx.slab, c.idx.table = slices.Clone(m.idx.slab), slices.Clone(m.idx.table)
	return c
}

// Evaluator routes and loads failure scenarios of one region: a fiber
// map's usable-duct graph, DC capacities and, for the centralized design,
// hubs. The scenario is Cut; set it, call Route, then Load. The hose-load
// memo is keyed by pair sets and survives across scenarios, and Fork hands
// it on. An Evaluator is not safe for concurrent use.
type Evaluator struct {
	// Cut is the failure scenario Route evaluates.
	Cut *graph.Cut

	in      Input // the region, with Base set: what Fork builds from
	base    *graph.Graph
	dcs     []int
	nDC     int
	dcPos   []int32     // node ID -> position in dcs, -1 for non-DCs
	caps    []float64   // by DC position
	pairPos []hose.Pair // by pair index, the pair's DC positions
	hubs    []int
	sources []int // the nodes trees are grown from: the hubs, else the DCs

	dijk  graph.Scratch
	trees []*graph.ShortestPathTree // by source, nil until first asked for
	depth []int                     // by source, the frame its tree is exact for
	ids   []int                     // scratch: the ducts a repair adds
	legN  []int
	legE  []graph.Edge

	routes []Route // one slot per DC pair
	frames []frame
	gained []int
	work   evalWork

	// flagged holds words bits per verdict: bit p of the set for verdict
	// 1<<k is set while pair p's route has it.
	flagged []uint64

	// Per-duct crossing tables. cross holds words bits per duct: bit p is
	// set while pair p's route crosses the duct; multi lists, in pair
	// order, the pairs that cross it more than once; residCnt counts
	// crossings with multiplicity. need is the duct's load as Load(nil,
	// nil) last computed it, current unless dirty.
	words    int
	cross    []uint64
	multi    [][]crossEntry
	residCnt []int32
	need     []DuctLoad
	dirty    []bool
	riders   []rider  // the scenario's, see ride
	key      []uint64 // words bits of scratch: a pair set being looked up
	mask     []uint64 // words bits of scratch: pairs to re-route, or active
	loads    []DuctLoad

	lp       hose.LP
	memo     *hoseMemo
	pairsBuf []hose.Pair
}

// newEvaluator sizes an evaluator for the input's region: Map, Capacity,
// ViaHubs and Base (built from Map when nil) are read; the input is
// assumed valid.
func newEvaluator(in Input) *Evaluator {
	base := in.Base
	if base == nil {
		base = BaseGraph(in.Map)
	}
	in.Base, in.Span = base, nil
	dcs := in.Map.DCs()
	nDC := len(dcs)
	nPairs := nDC * (nDC - 1) / 2
	nDucts := base.MaxEdgeID() + 1
	words := (nPairs + 63) / 64
	ev := &Evaluator{
		Cut:      graph.NewCut(base),
		in:       in,
		base:     base,
		dcs:      dcs,
		nDC:      nDC,
		dcPos:    make([]int32, base.NumNodes()),
		caps:     make([]float64, nDC),
		pairPos:  make([]hose.Pair, 0, nPairs),
		hubs:     append([]int(nil), in.ViaHubs...),
		routes:   make([]Route, 0, nPairs),
		words:    words,
		flagged:  make([]uint64, nVerdicts*words),
		cross:    make([]uint64, nDucts*words),
		multi:    make([][]crossEntry, nDucts),
		residCnt: make([]int32, nDucts),
		need:     make([]DuctLoad, nDucts),
		dirty:    make([]bool, nDucts),
		key:      make([]uint64, words),
		mask:     make([]uint64, words),
		memo:     &hoseMemo{idx: setIndex{width: words}},
	}
	ev.sources = dcs
	if len(ev.hubs) > 0 {
		ev.sources = ev.hubs
	}
	ev.trees = make([]*graph.ShortestPathTree, len(ev.sources))
	ev.depth = make([]int, len(ev.sources))
	for i := range ev.dcPos {
		ev.dcPos[i] = -1
	}
	for i, dc := range dcs {
		ev.dcPos[dc] = int32(i)
		ev.caps[i] = float64(in.Capacity[dc])
	}
	// Enumeration order makes ascending pair indices coincide with
	// ascending (A, B) pairs, which the order the LP's arcs are added in
	// relies on.
	for i := 0; i < nDC; i++ {
		for j := i + 1; j < nDC; j++ {
			ev.pairPos = append(ev.pairPos, hose.Pair{A: i, B: j})
			ev.routes = append(ev.routes, Route{
				Pair: hose.Pair{A: dcs[i], B: dcs[j]},
				I:    int32(i), J: int32(j), PairIdx: int32(len(ev.routes)),
			})
		}
	}
	for id := range ev.need {
		ev.need[id].Duct = id
		ev.dirty[id] = true
	}
	return ev
}

// Fork returns an evaluator of ev's region at the failure-free scenario, on
// ev's base graph — whose failure-free trees ev memoised there — with a
// copy of ev's hose-load memo, so no pair set ev has loaded costs it a
// max-flow. Fork only reads ev: an evaluator nobody routes on may be
// forked concurrently.
func (ev *Evaluator) Fork() *Evaluator {
	f := newEvaluator(ev.in)
	f.memo = ev.memo.clone()
	return f
}

// DCs returns the region's DC node IDs, ascending. Per-DC slices the
// evaluator takes are indexed by position in this list.
func (ev *Evaluator) DCs() []int { return ev.dcs }

// NumPairs returns the number of DC pairs, the length of per-pair slices.
func (ev *Evaluator) NumPairs() int { return len(ev.pairPos) }

// PairIndex returns the dense index of a DC pair (either orientation), or
// false when an endpoint is not a DC of the region.
func (ev *Evaluator) PairIndex(p hose.Pair) (int, bool) {
	if p.A < 0 || p.A >= len(ev.dcPos) || p.B < 0 || p.B >= len(ev.dcPos) {
		return 0, false
	}
	i, j := int(ev.dcPos[p.A]), int(ev.dcPos[p.B])
	if i < 0 || j < 0 || i == j {
		return 0, false
	}
	return ev.pairIdx(min(i, j), max(i, j)), true
}

// pairIdx maps DC positions i<j to the dense pair index.
func (ev *Evaluator) pairIdx(i, j int) int { return i*ev.nDC - i*(i+1)/2 + j - i - 1 }

// tree returns the shortest-path tree of source number si under Cut, as
// the top frame accounts for it. The first time a source is asked for, its
// tree is copied — repairs must leave the shared one alone — from the base
// graph's memoised failure-free one, which is exact for frame 0. A tree
// exact for a lower frame is repaired in place below the ducts of the
// frames above it (graph.Repair: the failure-free tree and every repaired
// one is the exact tree of its frame's cut, so the result is too, by
// induction); the labels it overwrote go on the top frame's log with the
// frame the tree was exact for, and undo puts both back.
// TestRouteReuseMatchesRecompute holds every tree the evaluator keeps to
// DijkstraInto's for the cut of its frame, node by node.
func (ev *Evaluator) tree(si int) *graph.ShortestPathTree {
	t, top := ev.trees[si], len(ev.frames)-1
	if t == nil {
		t = ev.base.Dijkstra(ev.sources[si]).Clone()
		ev.trees[si] = t
		ev.work.fullTrees++
	}
	d := ev.depth[si]
	if d == top {
		return t
	}
	ev.ids = ev.ids[:0]
	for i := d + 1; i <= top; i++ {
		ev.ids = append(ev.ids, ev.frames[i].ids...)
	}
	f := &ev.frames[top]
	off := len(f.labels)
	f.labels = ev.base.Repair(t, ev.ids, ev.Cut.Skip(), &ev.dijk, f.labels)
	f.repairs = append(f.repairs, treeRepair{si: int32(si), depth: int32(d), off: int32(off)})
	ev.work.relabelled += len(f.labels) - off
	ev.depth[si] = top
	return t
}

// Route brings every DC pair's route — shortest surviving path in the
// distributed design, best DC-hub-DC walk in the centralized one — up to
// Cut and returns the pairs' slots, indexed by pair index. Pairs the cut
// disconnects are not Routed. The riders of the last scenario are taken
// off.
//
// A pair's route is re-read only when a duct the cut gained lies on it;
// every other pair keeps its route by the argument in this file's header.
// Frames the cut no longer contains are undone first, so the routes a new
// frame starts from are exactly those of the ducts still cut.
func (ev *Evaluator) Route() []Route {
	ev.work.scenarios++
	ev.riders = ev.riders[:0]
	if len(ev.frames) == 0 {
		for i := range ev.mask {
			ev.mask[i] = ^uint64(0)
		}
		if tail := len(ev.pairPos) % 64; tail > 0 {
			ev.mask[ev.words-1] = 1<<tail - 1
		}
		ev.push(nil)
	}
	cut := ev.Cut.IDs()
	kept := 0 // cut ducts the surviving frames account for
	for i := 1; i < len(ev.frames); i++ {
		if !ev.frames[i].within(cut) {
			for len(ev.frames) > i {
				ev.undo()
			}
			break
		}
		kept += len(ev.frames[i].ids)
	}
	if kept == len(cut) {
		return ev.routes
	}
	ev.gained = ev.gained[:0]
	for _, id := range cut {
		if !ev.cutBy(id) {
			ev.gained = append(ev.gained, id)
		}
	}
	ev.unite(ev.gained)
	ev.push(ev.gained)
	return ev.routes
}

// Crossing appends to dst the indices of the pairs whose current route
// crosses at least one of the ducts, ascending and each pair once, and
// returns the extended slice. Under the empty Cut these are the pairs
// whose planned path (Plan.Paths) rides one of the ducts.
func (ev *Evaluator) Crossing(ducts []int, dst []int32) []int32 {
	ev.unite(ducts)
	return appendPairs(dst, ev.mask)
}

// unite sets ev.mask to the union of the ducts' crossing sets.
func (ev *Evaluator) unite(ducts []int) {
	clear(ev.mask)
	for _, id := range ducts {
		if uint(id) < uint(len(ev.need)) {
			for w, bits := range ev.crossing(id) {
				ev.mask[w] |= bits
			}
		}
	}
}

// within reports whether every duct the frame cut is in the given cut.
func (f *frame) within(cut []int) bool {
	for _, id := range f.ids {
		if _, ok := slices.BinarySearch(cut, id); !ok {
			return false
		}
	}
	return true
}

// cutBy reports whether a frame on the stack cut the duct.
func (ev *Evaluator) cutBy(id int) bool {
	for i := 1; i < len(ev.frames); i++ {
		if _, ok := slices.BinarySearch(ev.frames[i].ids, id); ok {
			return true
		}
	}
	return false
}

// crossing returns the duct's crossing set.
func (ev *Evaluator) crossing(duct int) []uint64 {
	return ev.cross[duct*ev.words : (duct+1)*ev.words]
}

// push opens a frame for the ducts the cut gained and re-routes, under
// the whole cut, the pairs set in ev.mask, logging what it replaces.
func (ev *Evaluator) push(gained []int) {
	n := len(ev.frames)
	if n < cap(ev.frames) {
		ev.frames = ev.frames[:n+1]
	} else {
		ev.frames = append(ev.frames, frame{})
	}
	f := &ev.frames[n]
	f.ids = append(f.ids[:0], gained...)
	f.saves, f.nodes, f.ducts, f.sites, f.needs = f.saves[:0], f.nodes[:0], f.ducts[:0], f.sites[:0], f.needs[:0]
	f.labels, f.repairs = f.labels[:0], f.repairs[:0]
	for w, todo := range ev.mask {
		for ; todo != 0; todo &= todo - 1 {
			r := &ev.routes[w*64+bits.TrailingZeros64(todo)]
			f.saves = append(f.saves, routeSave{
				pairIdx: r.PairIdx,
				nodeOff: int32(len(f.nodes)), nodeLen: int32(len(r.Nodes)),
				ductOff: int32(len(f.ducts)), ductLen: int32(len(r.Ducts)),
				siteOff: int32(len(f.sites)), siteLen: int32(len(r.sites)),
				totalKM: r.TotalKM, verdicts: r.verdicts, sitesRead: r.sitesRead,
			})
			f.nodes = append(f.nodes, r.Nodes...)
			f.ducts = append(f.ducts, r.Ducts...)
			f.sites = append(f.sites, r.sites...)
			ev.uncross(f, r)
			ev.read(r)
			ev.flag(r, ev.verdictsOf(r))
			r.sites, r.sitesRead = r.sites[:0], false
			ev.recross(f, r)
		}
	}
}

// flag sets the route's verdicts, in the slot and in the flagged sets.
func (ev *Evaluator) flag(r *Route, v verdict) {
	w, bit := int(r.PairIdx>>6), uint64(1)<<(r.PairIdx&63)
	for k := range nVerdicts {
		if set := ev.flagged[k*ev.words:]; v&(1<<k) != 0 {
			set[w] |= bit
		} else {
			set[w] &^= bit
		}
	}
	r.verdicts = v
}

// flaggedSet returns the set, words bits over pair indices, of the routes
// with the verdict.
func (ev *Evaluator) flaggedSet(v verdict) []uint64 {
	k := bits.TrailingZeros8(uint8(v))
	return ev.flagged[k*ev.words : (k+1)*ev.words]
}

// undo pops the top frame: the routes it replaced are back, so are the
// trees it repaired, and so is the need of every duct that was current
// when the frame first touched it. The other ducts it touched are left to
// the next Load.
func (ev *Evaluator) undo() {
	f := &ev.frames[len(ev.frames)-1]
	end := int32(len(f.labels))
	for k := len(f.repairs) - 1; k >= 0; k-- {
		rp := f.repairs[k]
		ev.trees[rp.si].Restore(f.labels[rp.off:end])
		ev.depth[rp.si] = int(rp.depth)
		ev.work.restored += int(end - rp.off)
		end = rp.off
	}
	for _, s := range f.saves {
		r := &ev.routes[s.pairIdx]
		ev.uncross(nil, r)
		r.Nodes = append(r.Nodes[:0], f.nodes[s.nodeOff:s.nodeOff+s.nodeLen]...)
		r.Ducts = append(r.Ducts[:0], f.ducts[s.ductOff:s.ductOff+s.ductLen]...)
		r.sites = append(r.sites[:0], f.sites[s.siteOff:s.siteOff+s.siteLen]...)
		r.TotalKM, r.sitesRead = s.totalKM, s.sitesRead
		ev.flag(r, s.verdicts)
		ev.recross(nil, r)
	}
	for _, l := range f.needs {
		ev.need[l.Duct] = l
		ev.dirty[l.Duct] = false
	}
	ev.frames = ev.frames[:len(ev.frames)-1]
}

// touch records that the duct's crossing set is changing: its need is no
// longer current, and a frame that is the first to change it since the
// need was computed logs the need for undo.
func (ev *Evaluator) touch(f *frame, duct int) {
	if !ev.dirty[duct] {
		if f != nil {
			f.needs = append(f.needs, ev.need[duct])
		}
		ev.dirty[duct] = true
	}
}

// uncross takes the route's crossings out of the per-duct tables.
func (ev *Evaluator) uncross(f *frame, r *Route) {
	w, bit := r.PairIdx>>6, uint64(1)<<(r.PairIdx&63)
	for _, e := range r.Ducts {
		ev.touch(f, e.ID)
		ev.residCnt[e.ID]--
		if m := ev.multi[e.ID]; len(m) > 0 {
			if i, found := findEntry(m, r.PairIdx); found {
				if m[i].count--; m[i].count == 1 {
					ev.multi[e.ID] = slices.Delete(m, i, i+1)
				}
				continue
			}
		}
		ev.crossing(e.ID)[w] &^= bit
	}
}

// recross puts the route's crossings into the per-duct tables. A duct the
// route crosses again (a via-hub walk whose legs share it) finds the
// pair's bit set by the first crossing.
func (ev *Evaluator) recross(f *frame, r *Route) {
	w, bit := r.PairIdx>>6, uint64(1)<<(r.PairIdx&63)
	for _, e := range r.Ducts {
		ev.touch(f, e.ID)
		ev.residCnt[e.ID]++
		set := ev.crossing(e.ID)
		if set[w]&bit == 0 {
			set[w] |= bit
			continue
		}
		m := ev.multi[e.ID]
		if i, found := findEntry(m, r.PairIdx); found {
			m[i].count++
		} else {
			ev.multi[e.ID] = slices.Insert(m, i, crossEntry{pairIdx: r.PairIdx, count: 2})
		}
	}
}

// findEntry returns where the pair's entry is, or belongs, in a list kept
// in pair order.
func findEntry(m []crossEntry, pairIdx int32) (int, bool) {
	for i, en := range m {
		if en.pairIdx >= pairIdx {
			return i, en.pairIdx == pairIdx
		}
	}
	return len(m), false
}

// read reads one pair's route off the sources' trees under Cut.
func (ev *Evaluator) read(r *Route) {
	ev.work.routesRead++
	r.Nodes, r.Ducts, r.TotalKM = r.Nodes[:0], r.Ducts[:0], 0
	a, b := r.Pair.A, r.Pair.B
	if len(ev.hubs) == 0 {
		t := ev.tree(int(r.I))
		if math.IsInf(t.Dist[b], 1) {
			return
		}
		r.Nodes, r.Ducts, _ = t.AppendPathTo(b, r.Nodes, r.Ducts)
		r.TotalKM = t.Dist[b]
		return
	}
	// Best DC-hub-DC walk; legs may share ducts (both DCs behind one
	// trunk) and Load accounts for the double crossing.
	best := graph.Inf
	var bt *graph.ShortestPathTree
	for si := range ev.hubs {
		t := ev.tree(si)
		if d := t.Dist[a] + t.Dist[b]; d < best && d < graph.Inf {
			best, bt = d, t
		}
	}
	if bt == nil {
		return
	}
	ev.legN, ev.legE, _ = bt.AppendPathTo(a, ev.legN[:0], ev.legE[:0])
	for k := len(ev.legN) - 1; k >= 0; k-- {
		r.Nodes = append(r.Nodes, ev.legN[k])
	}
	for k := len(ev.legE) - 1; k >= 0; k-- {
		r.Ducts = append(r.Ducts, ev.legE[k])
	}
	ev.legN, ev.legE, _ = bt.AppendPathTo(b, ev.legN[:0], ev.legE[:0])
	r.Nodes = append(r.Nodes, ev.legN[1:]...)
	r.Ducts = append(r.Ducts, ev.legE...)
	r.TotalKM = best
}

// spanExceeded reports whether a segment of the route, between its ends
// and an inline amplifier at ampNode (none when negative), is longer than
// the unamplified span limit (TC1). It is the allocation-free equivalent
// of checking optics.Evaluate(elementsFor(pr)) for a segment-loss
// violation (the oracle plan_test.go keeps), which Algorithm 2 does in a
// hot loop.
func (ev *Evaluator) spanExceeded(r *Route, ampNode int) bool {
	ev.work.spanWalks++
	seg := 0.0
	for i, e := range r.Ducts {
		seg += e.W
		if seg > optics.MaxSpanKM+1e-9 {
			return true
		}
		if i < len(r.Ducts)-1 && r.Nodes[i+1] == ampNode {
			seg = 0
		}
	}
	return false
}

// Load applies the provisioning rule to the current routes and returns
// what the scenario requires of every crossed duct, in duct-ID order: need
// = ⌈WorstCaseLoad(crossing pairs) + Σ(k−1)·min(C_A,C_B) − 1e-9⌉
// fiber-pairs for a duct whose pairs cross it k times, and one residual
// pair per crossing. The slice is reused by the next call.
//
// Both arguments are optional. caps overrides the region's DC capacities
// (by DC position) and active, by pair index, restricts the load to a
// subset of the routed pairs: together they evaluate one traffic matrix's
// own hose instead of the planned one. An override bypasses the memo and
// computes every duct; without one, a duct whose crossing set has not
// changed since its need was computed — no re-route or undo touched it,
// and no cut-through rider is or was on it — is listed from that need.
func (ev *Evaluator) Load(caps []float64, active []bool) []DuctLoad {
	override := caps
	if caps == nil {
		caps = ev.caps
	}
	var only []uint64
	if active != nil {
		only = ev.mask
		clear(only)
		for p, on := range active {
			if on {
				only[p>>6] |= 1 << (p & 63)
			}
		}
	}

	// A need computed with a rider on the duct is not one to keep: the
	// duct is dirty going in and coming out.
	cached := override == nil && active == nil
	if cached {
		for _, rd := range ev.riders {
			ev.dirty[rd.duct] = true
		}
	}
	ev.loads = ev.loads[:0]
	for id, n := range ev.residCnt {
		if n == 0 {
			continue
		}
		if cached && !ev.dirty[id] {
			ev.loads = append(ev.loads, ev.need[id])
			continue
		}
		l := ev.loadDuct(id, caps, override, only)
		if l.ResidualPairs == 0 {
			continue // no active pair crosses it
		}
		if cached {
			ev.need[id] = l
			ev.dirty[id] = false
		}
		ev.loads = append(ev.loads, l)
	}
	if cached {
		for _, rd := range ev.riders {
			ev.dirty[rd.duct] = true
		}
	}
	return ev.loads
}

// ride records, for the next Load, that the pair's traffic rides a
// cut-through fiber on a duct of its route: there it consumes no switched
// base capacity, while its residual fiber still follows the whole path.
// The planner calls it after cut-through placement; Route takes the riders
// off, and other callers compare the load with base plus cut-through fiber.
func (ev *Evaluator) ride(pairIdx int32, duct int) {
	ev.riders = append(ev.riders, rider{duct: int32(duct), pairIdx: pairIdx})
}

// loadDuct is the provisioning rule for one crossed duct, from its
// crossing tables: only, when not nil, is the set of pairs that count.
func (ev *Evaluator) loadDuct(id int, caps, override []float64, only []uint64) DuctLoad {
	l := DuctLoad{Duct: id, ResidualPairs: int(ev.residCnt[id])}
	key := ev.key
	copy(key, ev.crossing(id))
	if only != nil {
		l.ResidualPairs = 0
		for w := range key {
			key[w] &= only[w]
			l.ResidualPairs += bits.OnesCount64(key[w])
		}
		for _, en := range ev.multi[id] {
			if hasBit(key, en.pairIdx) {
				l.ResidualPairs += int(en.count - 1)
			}
		}
	}
	// A rider's residual fiber follows its whole path; its switched load
	// does not cross this duct.
	for _, rd := range ev.riders {
		if int(rd.duct) == id {
			key[rd.pairIdx>>6] &^= 1 << (rd.pairIdx & 63)
		}
	}
	extra := 0.0
	for _, en := range ev.multi[id] {
		if hasBit(key, en.pairIdx) {
			p := ev.pairPos[en.pairIdx]
			extra += float64(en.count-1) * math.Min(caps[p.A], caps[p.B])
		}
	}
	if !isZero(key) {
		l.BasePairs = pairsFor(ev.hoseLoad(key, override) + extra)
	}
	return l
}

func hasBit(set []uint64, p int32) bool { return set[p>>6]&(1<<(p&63)) != 0 }

func isZero(set []uint64) bool {
	for _, w := range set {
		if w != 0 {
			return false
		}
	}
	return true
}

// pairsFor returns the fiber-pairs (or, for an amplifier site, the
// amplifiers) that carry the worst-case hose load of the given pairs
// under the region's capacities.
func (ev *Evaluator) pairsFor(idx []int32) int {
	clear(ev.key)
	for _, p := range idx {
		ev.key[p>>6] |= 1 << (p & 63)
	}
	return pairsFor(ev.hoseLoad(ev.key, nil))
}

// hoseLoad is the worst-case hose load of a set of pairs. Under the
// region's own capacities (override nil) it is memoised: the memo outlives
// scenarios, so a re-evaluated region pays for no max-flow at all. Under a
// Load capacity override, by DC position, it is computed afresh on the
// same resident LP.
func (ev *Evaluator) hoseLoad(set []uint64, override []float64) float64 {
	caps := override
	if override == nil {
		ev.work.lookups++
		id, added := ev.memo.idx.intern(set)
		if !added {
			return ev.memo.loads[id]
		}
		ev.work.lps++
		caps = ev.caps
	}
	// Ascending pair indices are ascending (A, B) pairs: the order the
	// LP's arcs have always been added in.
	ev.pairsBuf = ev.pairsBuf[:0]
	for w, rest := range set {
		for ; rest != 0; rest &= rest - 1 {
			ev.pairsBuf = append(ev.pairsBuf, ev.pairPos[w*64+bits.TrailingZeros64(rest)])
		}
	}
	load := ev.lp.WorstCaseLoad(caps, ev.pairsBuf)
	if override == nil {
		ev.memo.loads = append(ev.memo.loads, load)
	}
	return load
}

// setIndex interns bitsets of one fixed width: equal sets get the same
// dense ID, assigned in first-seen order. Keys live in one flat slab and
// the hash table is open-addressed, so looking up a known set allocates
// nothing.
type setIndex struct {
	width int
	n     int      // keys interned
	slab  []uint64 // concatenated keys, in ID order
	table []int32  // open addressing; value is id+1, 0 means empty
}

func hashSet(key []uint64) uint32 {
	h := uint64(14695981039346656037)
	for _, v := range key {
		h = (h ^ v) * 0x9E3779B97F4A7C15
		h ^= h >> 29
	}
	return uint32(h ^ h>>32)
}

// intern returns the ID for key, adding it if absent. added reports
// whether this call created the entry.
func (s *setIndex) intern(key []uint64) (id int, added bool) {
	n := s.n
	if (n+1)*4 >= len(s.table)*3 {
		s.table = make([]int32, max(64, len(s.table)*2))
		for id := 0; id < n; id++ {
			s.place(id)
		}
	}
	mask := uint32(len(s.table) - 1)
	for i := hashSet(key) & mask; ; i = (i + 1) & mask {
		v := s.table[i]
		if v == 0 {
			s.slab = append(s.slab, key...)
			s.table[i] = int32(n + 1)
			s.n++
			return n, true
		}
		if id = int(v - 1); slices.Equal(s.slab[id*s.width:(id+1)*s.width], key) {
			return id, false
		}
	}
}

// place enters an interned key into a table that does not hold it.
func (s *setIndex) place(id int) {
	mask := uint32(len(s.table) - 1)
	i := hashSet(s.slab[id*s.width:(id+1)*s.width]) & mask
	for s.table[i] != 0 {
		i = (i + 1) & mask
	}
	s.table[i] = int32(id + 1)
}
