package plan

import (
	"math"
	"slices"

	"iris/internal/graph"
	"iris/internal/hose"
)

// This file is the scenario evaluator: the one implementation of the
// kernel of Algorithm 1 (§4.1) — with these ducts cut, route every DC
// pair on its shortest surviving path, then load every crossed duct under
// the hose model. The planner maximises its output over the scenarios it
// enumerates; the chaos auditor and the robust verifier compare it with
// what a finished plan provisioned. Everything is held in flat arenas
// stamped by generation, so a warmed evaluator routes and loads a
// scenario without allocating.

// Route is one DC pair's path in the evaluator's current scenario. Its
// slices live in the evaluator and are overwritten by the next Route call.
type Route struct {
	Pair    hose.Pair
	I, J    int32 // positions of Pair.A and Pair.B in Evaluator.DCs
	PairIdx int32 // dense index of the pair, see Evaluator.PairIndex
	Nodes   []int
	Ducts   []graph.Edge
	TotalKM float64
	// CutDucts lists ducts on which this pair consumes no switched base
	// capacity because its traffic rides a cut-through fiber there. Route
	// empties it; the planner fills it before Load, other callers leave
	// it empty and compare the load with base plus cut-through fiber.
	CutDucts []int
}

func (r *Route) onCutThrough(duct int) bool {
	return slices.Contains(r.CutDucts, duct)
}

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

// crossEntry is one DC pair's crossing count on a duct within a scenario.
type crossEntry struct {
	pairIdx int32
	count   int32
}

// Evaluator routes and loads failure scenarios of one region: a fiber
// map's usable-duct graph, DC capacities and, for the centralized design,
// hubs. The scenario is Cut; set it, call Route, then Load. The hose-load
// memo is keyed by pair sets and survives across scenarios, which is the
// dominant saving: most scenarios reproduce the same per-duct pair sets.
// An Evaluator is not safe for concurrent use.
type Evaluator struct {
	// Cut is the failure scenario Route evaluates.
	Cut *graph.Cut

	base    *graph.Graph
	dcs     []int
	nDC     int
	dcPos   []int32     // node ID -> position in dcs, -1 for non-DCs
	caps    []float64   // by DC position
	pairPos []hose.Pair // by pair index, the pair's DC positions
	hubs    []int

	dijk    graph.Scratch
	kept    [][]keptTree              // by source, then by size of the cut
	trees   []*graph.ShortestPathTree // by source, the current scenario's
	legN    []int
	legE    []graph.Edge
	routes  []Route // one slot per DC pair
	nRoutes int

	// Hose-load memo, keyed by sorted pair-index sequences.
	lp        hose.LP
	hoseIdx   seqIndex
	hoseLoads []float64
	idxBuf    []int32
	pairsBuf  []hose.Pair

	// Per-duct crossing tables, stamped by crossSeq.
	cross    [][]crossEntry
	crossGen []uint32
	crossSeq uint32
	residCnt []int32
	loads    []DuctLoad
}

// NewEvaluator sizes an evaluator for the input's region: Map, Capacity,
// ViaHubs and Base (built from Map when nil) are read; the input is
// assumed valid.
func NewEvaluator(in Input) *Evaluator {
	base := in.Base
	if base == nil {
		base = BaseGraph(in.Map)
	}
	dcs := in.Map.DCs()
	nDC := len(dcs)
	nPairs := nDC * (nDC - 1) / 2
	nDucts := base.MaxEdgeID() + 1
	nSources := nDC
	if len(in.ViaHubs) > 0 {
		nSources = len(in.ViaHubs)
	}
	ev := &Evaluator{
		Cut:      graph.NewCut(base),
		base:     base,
		dcs:      dcs,
		nDC:      nDC,
		dcPos:    make([]int32, base.NumNodes()),
		caps:     make([]float64, nDC),
		pairPos:  make([]hose.Pair, 0, nPairs),
		hubs:     append([]int(nil), in.ViaHubs...),
		kept:     make([][]keptTree, nSources),
		trees:    make([]*graph.ShortestPathTree, nSources),
		routes:   make([]Route, nPairs),
		cross:    make([][]crossEntry, nDucts),
		crossGen: make([]uint32, nDucts),
		residCnt: make([]int32, nDucts),
	}
	for i := range ev.dcPos {
		ev.dcPos[i] = -1
	}
	for i, dc := range dcs {
		ev.dcPos[dc] = int32(i)
		ev.caps[i] = float64(in.Capacity[dc])
	}
	// Enumeration order makes ascending pair indices coincide with
	// ascending (A, B) pairs, which the memo's key ordering relies on.
	for i := 0; i < nDC; i++ {
		for j := i + 1; j < nDC; j++ {
			ev.pairPos = append(ev.pairPos, hose.Pair{A: i, B: j})
		}
	}
	return ev
}

// Base returns the usable-duct graph scenarios are evaluated on.
func (ev *Evaluator) Base() *graph.Graph { return ev.base }

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

// keptTree is a shortest-path tree Route computed from one source, with
// what decides whether a later scenario may read it instead of computing
// its own: the cut it was computed under and, by duct ID, whether the duct
// lies on the tree's path to a DC that Route reads from this source.
type keptTree struct {
	tree   *graph.ShortestPathTree
	cut    []int
	onPath []bool
}

// holds reports whether the tree is, in everything Route reads from it,
// the tree of the given cut (ascending, as the tree's own): no duct it was
// computed without is back, and no duct it reaches a DC over is cut.
func (k *keptTree) holds(cut []int) bool {
	i := 0
	for _, id := range cut {
		if i < len(k.cut) && k.cut[i] == id {
			i++
		} else if uint(id) < uint(len(k.onPath)) && k.onPath[id] {
			return false
		}
	}
	return i == len(k.cut)
}

// tree returns the shortest-path tree of source number si, node s, under
// Cut. Per source and per cut size the evaluator keeps the last tree it
// computed, and a scenario reads the deepest kept tree that holds for its
// cut; Dijkstra runs only when none does. The planner's DFS (Cut.Push and
// Pop: a child scenario's cut extends its parent's) and the auditor
// (Cut.Set: most cuts miss most sources' failure-free trees) are served by
// this one rule.
//
// It is exact by the argument that makes the planner's pruned DFS exact:
// with deterministic tie-breaking, removing a duct no selected path uses
// cannot alter which paths Dijkstra selects — the paths to the DCs read
// survive, and every rival label only got worse. So a kept tree's paths
// to those DCs, and their lengths bit for bit, are what a fresh run under
// the larger cut would produce; a DC the tree does not reach stays
// unreached. The rest of the tree may differ and is never read.
// TestRouteReuseMatchesRecompute holds the rule to a recomputation after
// every Route call.
func (ev *Evaluator) tree(si, s int) *graph.ShortestPathTree {
	cut := ev.Cut.IDs()
	for len(ev.kept[si]) <= len(cut) {
		ev.kept[si] = append(ev.kept[si], keptTree{})
	}
	kept := ev.kept[si]
	if kept[0].tree == nil {
		// The failure-free tree is the base graph's memoised one, shared
		// by every evaluator on that graph.
		kept[0].tree = ev.base.Dijkstra(s)
		ev.markPaths(si, &kept[0])
	}
	for d := len(cut); d >= 0; d-- {
		if k := &kept[d]; k.tree != nil && k.holds(cut) {
			return k.tree
		}
	}
	k := &kept[len(cut)]
	if k.tree == nil {
		k.tree = new(graph.ShortestPathTree)
	}
	ev.base.DijkstraInto(s, ev.Cut.Skip(), k.tree, &ev.dijk)
	k.cut = append(k.cut[:0], cut...)
	ev.markPaths(si, k)
	return k.tree
}

// markPaths fills k.onPath for source number si: the ducts on the tree's
// paths to the DCs Route reads from it — every DC from a hub, the DCs
// after it from a DC.
func (ev *Evaluator) markPaths(si int, k *keptTree) {
	if k.onPath == nil {
		k.onPath = make([]bool, len(ev.cross))
	}
	clear(k.onPath)
	targets := ev.dcs
	if len(ev.hubs) == 0 {
		targets = ev.dcs[si+1:]
	}
	for _, dc := range targets {
		k.tree.MarkPathTo(dc, k.onPath)
	}
}

// Route computes every DC pair's route under Cut — shortest surviving
// path in the distributed design, best DC-hub-DC walk in the centralized
// one — and returns the routed pairs in pair-index order. Pairs the cut
// disconnects are absent: Algorithm 1 owes them no capacity.
func (ev *Evaluator) Route() []Route {
	sources := ev.dcs
	if len(ev.hubs) > 0 {
		sources = ev.hubs
	}
	for si, s := range sources {
		ev.trees[si] = ev.tree(si, s)
	}
	return ev.readRoutes()
}

// readRoutes reads the routes off the sources' current trees.
func (ev *Evaluator) readRoutes() []Route {
	trees := ev.trees
	ev.nRoutes = 0
	for i := range ev.dcs {
		for j := i + 1; j < ev.nDC; j++ {
			a, b := ev.dcs[i], ev.dcs[j]
			if len(ev.hubs) == 0 {
				t := trees[i]
				if math.IsInf(t.Dist[b], 1) {
					continue
				}
				r := ev.nextRoute(i, j)
				r.Nodes, r.Ducts, _ = t.AppendPathTo(b, r.Nodes, r.Ducts)
				r.TotalKM = t.Dist[b]
				continue
			}
			// Best DC-hub-DC walk; legs may share ducts (both DCs behind
			// one trunk) and Load accounts for the double crossing.
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
			r := ev.nextRoute(i, j)
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
	}
	return ev.routes[:ev.nRoutes]
}

// nextRoute claims the next route slot for DC positions i<j, resetting
// its reused slices.
func (ev *Evaluator) nextRoute(i, j int) *Route {
	r := &ev.routes[ev.nRoutes]
	ev.nRoutes++
	r.Pair = hose.Pair{A: ev.dcs[i], B: ev.dcs[j]}
	r.I, r.J = int32(i), int32(j)
	r.PairIdx = int32(ev.pairIdx(i, j))
	r.Nodes = r.Nodes[:0]
	r.Ducts = r.Ducts[:0]
	r.CutDucts = r.CutDucts[:0]
	return r
}

// Load applies the provisioning rule to the routes of the last Route
// call and returns what the scenario requires of every crossed duct, in
// duct-ID order: need = ⌈WorstCaseLoad(crossing pairs) +
// Σ(k−1)·min(C_A,C_B) − 1e-9⌉ fiber-pairs for a duct whose pairs cross it
// k times, and one residual pair per crossing. The slice is reused by the
// next call.
//
// Both arguments are optional. caps overrides the region's DC capacities
// (by DC position) and active, by pair index, restricts the load to a
// subset of the routed pairs: together they evaluate one traffic matrix's
// own hose instead of the planned one. An override bypasses the memo.
func (ev *Evaluator) Load(caps []float64, active []bool) []DuctLoad {
	override := caps
	if caps == nil {
		caps = ev.caps
	}

	ev.crossSeq++
	if ev.crossSeq == 0 { // stamp wraparound: invalidate all marks
		clear(ev.crossGen)
		ev.crossSeq = 1
	}
	routes := ev.routes[:ev.nRoutes]
	for ri := range routes {
		r := &routes[ri]
		if active != nil && !active[r.PairIdx] {
			continue
		}
		for _, e := range r.Ducts {
			id := e.ID
			if ev.crossGen[id] != ev.crossSeq {
				ev.crossGen[id] = ev.crossSeq
				ev.cross[id] = ev.cross[id][:0]
				ev.residCnt[id] = 0
			}
			ev.residCnt[id]++
			if r.onCutThrough(id) {
				continue
			}
			// Routes are visited one pair at a time, and a pair crosses a
			// duct again (a via-hub walk) only within its own route: its
			// entry, if the duct has one, is the last.
			entries := ev.cross[id]
			if n := len(entries); n > 0 && entries[n-1].pairIdx == r.PairIdx {
				entries[n-1].count++
			} else {
				ev.cross[id] = append(entries, crossEntry{pairIdx: r.PairIdx, count: 1})
			}
		}
	}

	ev.loads = ev.loads[:0]
	for id, gen := range ev.crossGen {
		if gen != ev.crossSeq {
			continue
		}
		l := DuctLoad{Duct: id, ResidualPairs: int(ev.residCnt[id])}
		if entries := ev.cross[id]; len(entries) > 0 {
			ev.idxBuf = ev.idxBuf[:0]
			extra := 0.0
			for _, en := range entries {
				ev.idxBuf = append(ev.idxBuf, en.pairIdx)
				if en.count > 1 {
					p := ev.pairPos[en.pairIdx]
					extra += float64(en.count-1) * math.Min(caps[p.A], caps[p.B])
				}
			}
			l.BasePairs = pairsFor(ev.hoseLoad(ev.idxBuf, override) + extra)
		}
		ev.loads = append(ev.loads, l)
	}
	return ev.loads
}

// PairsFor returns the fiber-pairs (or, for an amplifier site, the
// amplifiers) that carry the worst-case hose load of the given pairs
// under the region's capacities. idx is reordered in place.
func (ev *Evaluator) PairsFor(idx []int32) int {
	return pairsFor(ev.hoseLoad(idx, nil))
}

// hoseLoad is the worst-case hose load of the pairs with the given indices
// (sorted and stripped of duplicates in place). Under the region's own
// capacities (override nil) it is memoised: the memo outlives scenarios,
// so a re-evaluated region pays for no max-flow at all. Under a Load
// capacity override, by DC position, it is computed afresh on the same
// resident LP.
func (ev *Evaluator) hoseLoad(idx []int32, override []float64) float64 {
	slices.Sort(idx)
	idx = slices.Compact(idx)
	caps := override
	if override == nil {
		id, added := ev.hoseIdx.intern(idx)
		if !added {
			return ev.hoseLoads[id]
		}
		caps = ev.caps
	}
	// Ascending pair indices are ascending (A, B) pairs: the order the
	// LP's arcs have always been added in.
	ev.pairsBuf = ev.pairsBuf[:0]
	for _, pi := range idx {
		ev.pairsBuf = append(ev.pairsBuf, ev.pairPos[pi])
	}
	load := ev.lp.WorstCaseLoad(caps, ev.pairsBuf)
	if override == nil {
		ev.hoseLoads = append(ev.hoseLoads, load)
	}
	return load
}
