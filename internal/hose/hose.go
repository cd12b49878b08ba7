// Package hose computes worst-case link loads under the hose traffic model
// (Duffield et al.), as required by the planner's capacity-provisioning
// step (§4.1 of the paper, adapting Juttner et al.).
//
// Under the hose model each DC v may send/receive up to its capacity C_v in
// aggregate, and the network must support every traffic matrix consistent
// with those bounds. With single (shortest) path routing, the worst-case
// load on a link is
//
//	max  Σ_p d_p   subject to   Σ_{p incident to v} d_p ≤ C_v  for all v,
//
// taken over the set of DC pairs p whose path crosses the link. This is a
// maximum fractional b-matching, which this package solves exactly as half
// the max-flow on the bipartite double cover of the pair graph.
package hose

import (
	"cmp"
	"fmt"
	"math"
	"sort"

	"iris/internal/graph"
)

// Pair is an unordered pair of DCs whose shortest path crosses the link
// under consideration.
type Pair struct {
	A, B int
}

// Canonical returns the pair with A ≤ B.
func (p Pair) Canonical() Pair {
	if p.A > p.B {
		return Pair{A: p.B, B: p.A}
	}
	return p
}

// Less orders pairs by A, then B: the one order every sorted pair listing
// in the repository uses (allocator books, history diffs, API bodies).
func (p Pair) Less(q Pair) bool {
	if p.A != q.A {
		return p.A < q.A
	}
	return p.B < q.B
}

// Compare is Less as a three-way comparison, for slices.SortFunc.
func (p Pair) Compare(q Pair) int {
	if c := cmp.Compare(p.A, q.A); c != 0 {
		return c
	}
	return cmp.Compare(p.B, q.B)
}

// SortPairs sorts pairs in Less order.
func SortPairs(ps []Pair) {
	sort.Slice(ps, func(i, j int) bool { return ps[i].Less(ps[j]) })
}

// WorstCaseLoad returns the worst-case hose-model load contributed by the
// given DC pairs, where caps maps DC id to its hose capacity (in the same
// units the result is produced in, e.g. fibers). Duplicate pairs are
// coalesced; a pair whose endpoints coincide panics, since no DC sends
// regional traffic to itself.
//
// The naive bound Σ_p min(C_A, C_B) over-provisions whenever one DC appears
// in several pairs (§4.1); this function computes the exact optimum. It is
// LP.WorstCaseLoad behind a renumbering: the DCs in play, ascending, become
// positions and the distinct pairs keep the order they were given in.
func WorstCaseLoad(caps map[int]float64, pairs []Pair) float64 {
	if len(pairs) == 0 {
		return 0
	}
	seen := make(map[Pair]bool, len(pairs))
	var uniq []Pair
	index := make(map[int]int)
	for _, p := range pairs {
		if p.A == p.B {
			panic(fmt.Sprintf("hose: degenerate pair (%d,%d)", p.A, p.B))
		}
		c := p.Canonical()
		if !seen[c] {
			seen[c] = true
			uniq = append(uniq, c)
			index[c.A], index[c.B] = 0, 0
		}
	}
	ids := make([]int, 0, len(index))
	for id := range index {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	dense := make([]float64, len(ids))
	for i, id := range ids {
		c, ok := caps[id]
		if !ok {
			panic(fmt.Sprintf("hose: no capacity for DC %d", id))
		}
		checkCapacity(c, id)
		index[id], dense[i] = i, c
	}
	for i, p := range uniq {
		uniq[i] = Pair{A: index[p.A], B: index[p.B]}
	}
	var lp LP
	return lp.WorstCaseLoad(dense, uniq)
}

// checkCapacity panics on a hose capacity no DC can have.
func checkCapacity(c float64, dc int) {
	if c < 0 || math.IsNaN(c) {
		panic(fmt.Sprintf("hose: invalid capacity %v for DC %d", c, dc))
	}
}

// LP solves worst-case-load problems on storage it keeps between them: the
// flow network of the double cover and the marks of the DCs in play, so a
// caller that holds one pays for no allocation once it is warm. The zero
// value is ready to use; an LP is not safe for concurrent use.
type LP struct {
	net  graph.FlowNetwork
	used []bool
}

// WorstCaseLoad is the package's WorstCaseLoad for a region whose DCs are
// numbered by position: caps[i] is DC i's hose capacity and a pair names
// its DCs by position. The pairs must be distinct with A < B. It is the
// one construction of the LP.
//
// Bipartite double cover: nodes are s, t, then left and right copies of
// each position. Every pair (a,b) contributes aL→bR and bL→aR; the value
// of the maximum fractional b-matching is half the s-t max flow. Only DCs
// in play get source and sink arcs, ascending, and the pairs' arcs follow
// in the order given: with capacities that are not integers the flow's
// last bits depend on the order Dinic meets the arcs in, and every caller
// of one problem must read the same float.
func (lp *LP) WorstCaseLoad(caps []float64, pairs []Pair) float64 {
	if len(pairs) == 0 {
		return 0
	}
	n := len(caps)
	if cap(lp.used) < n {
		lp.used = make([]bool, n)
	}
	used := lp.used[:n]
	clear(used)
	for _, p := range pairs {
		if p.A < 0 || p.A >= p.B || p.B >= n {
			panic(fmt.Sprintf("hose: pair (%d,%d) is not two of %d DCs in ascending order", p.A, p.B, n))
		}
		used[p.A], used[p.B] = true, true
	}

	f := &lp.net
	f.Clear(2 + 2*n)
	s, t := 0, 1
	left := func(i int) int { return 2 + i }
	right := func(i int) int { return 2 + n + i }
	for i, c := range caps {
		if !used[i] {
			continue
		}
		checkCapacity(c, i)
		f.AddArc(s, left(i), c)
		f.AddArc(right(i), t, c)
	}
	for _, p := range pairs {
		f.AddArc(left(p.A), right(p.B), math.Inf(1))
		f.AddArc(left(p.B), right(p.A), math.Inf(1))
	}
	return f.MaxFlow(s, t) / 2
}
