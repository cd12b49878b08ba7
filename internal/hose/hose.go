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
// the max-flow on the bipartite double cover of the pair graph. LP finds
// that flow with Dinic's algorithm replayed on the pair graph itself —
// per-DC adjacency bitsets and a flow matrix, no flow network is built —
// so its result is, bit for bit, the one graph.FlowNetwork gives on the
// double cover built in the same arc order.
package hose

import (
	"cmp"
	"fmt"
	"math/bits"
	"sort"
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
	if !(c >= 0) { // negative or NaN
		panic(fmt.Sprintf("hose: invalid capacity %v for DC %d", c, dc))
	}
}

// flowEps is the residual capacity at or below which an arc counts as
// saturated: graph.FlowNetwork's, whose Dinic the LP replays.
const flowEps = 1e-12

// LP solves worst-case-load problems on storage it keeps between them, so
// a caller that holds one pays for no allocation once it is warm. The
// zero value is ready to use; an LP is not safe for concurrent use.
//
// It holds the double cover as its DCs' adjacency, not as a flow network:
// per position, a bitset of its partners and their list in pair order; an
// n×n matrix of the flow on each left-to-right arc; and the residuals of
// the source and sink arcs. A middle arc's own capacity is +Inf, so its
// residual never changes and the matrix is all its reverse arc holds.
type LP struct {
	n, words int

	dc   []dcState // by position
	nbrs []int32   // row i*n holds i's partners, in the order the pairs were given
	hi   []int32   // by position: the end of its row of nbrs

	// Bitsets of words words per position: adj holds i's partners, rev
	// the left copies j's right copy has a residual arc back to — the k
	// with flow[k*n+j] > flowEps.
	adj, rev []uint64
	flow     []float64 // flow[k*n+j]: the flow on k's left copy → j's right copy

	// Bitsets of words words: the positions whose source arc and whose
	// sink arc are unsaturated. Per phase: the left copies at level 1 the
	// DFS has not given up on, and the BFS's visited sets and frontiers.
	srcOpen, snkOpen, live     []uint64
	visL, visR, frontL, frontR []uint64

	// The DFS's path and the bottleneck at each depth.
	path []int32
	lim  []float64
}

// dcState is one position's part of the double cover.
type dcState struct {
	src, snk       float64 // residual of s → its left copy, of its right copy → t
	iterL, iterR   int32   // its copies' current arcs, as indices into nbrs
	levelL, levelR int32   // its copies' levels in the last phase that reached them
}

// WorstCaseLoad is the package's WorstCaseLoad for a region whose DCs are
// numbered by position: caps[i] is DC i's hose capacity and a pair names
// its DCs by position. The pairs must be distinct with A < B; a pair
// given twice panics. It is the one solver of the LP.
//
// Bipartite double cover: nodes are s, t, then left and right copies of
// each position. Every pair (a,b) contributes aL→bR and bL→aR; the value
// of the maximum fractional b-matching is half the s-t max flow. Only DCs
// in play get source and sink arcs. With capacities that are not integers
// the flow's last bits depend on the order Dinic meets the arcs in, and
// every caller of one problem must read the same float; so the solve
// replays, step for step, Dinic on the network built with the source and
// sink arcs ascending and the pairs' arcs following in the order given:
//
//   - Levels are BFS distances, which do not depend on arc order; they come
//     from unions of the adjacency bitsets. A node at or beyond t's level
//     reaches t on no level path, so the search stops at t's level and the
//     DFS skips such nodes as Dinic's fails in them.
//   - The DFS keeps Dinic's current arcs: the source's in ascending
//     position; a left copy's in its pair order; a right copy's sink arc
//     first, then its reverse arcs in pair order.
//   - An augmenting path performs Dinic's -= and += on the same floats, and
//     the total adds the same pushes in the same order.
func (lp *LP) WorstCaseLoad(caps []float64, pairs []Pair) float64 {
	if len(pairs) == 0 {
		return 0
	}
	lp.build(caps, pairs)
	var total float64
	for tl := lp.levels(); tl != 0; tl = lp.levels() {
		total = lp.blockingFlow(tl, total)
	}
	return total / 2
}

// build loads a problem: the DCs in play, their adjacency in pair order,
// full source and sink arcs and no flow on any pair's arcs.
func (lp *LP) build(caps []float64, pairs []Pair) {
	n := len(caps)
	lp.grow(n)
	w := lp.words
	dc, hi, nbrs, flow := lp.dc, lp.hi[:n], lp.nbrs, lp.flow
	adj, rev := lp.adj[:n*w], lp.rev[:n*w]
	for i := range hi {
		hi[i] = int32(i * n)
	}
	clear(adj)
	clear(rev)
	for _, p := range pairs {
		a, b := p.A, p.B
		if a < 0 || a >= b || b >= n {
			panic(fmt.Sprintf("hose: pair (%d,%d) is not two of %d DCs in ascending order", a, b, n))
		}
		if adj[a*w+b>>6]&(1<<(b&63)) != 0 {
			panic(fmt.Sprintf("hose: pair (%d,%d) given twice", a, b))
		}
		adj[a*w+b>>6] |= 1 << (b & 63)
		adj[b*w+a>>6] |= 1 << (a & 63)
		nbrs[hi[a]] = int32(b)
		hi[a]++
		nbrs[hi[b]] = int32(a)
		hi[b]++
		flow[a*n+b], flow[b*n+a] = 0, 0
	}
	for wi := 0; wi < w; wi++ {
		// A DC is in play iff it is someone's partner.
		var word uint64
		for i := wi; i < len(adj); i += w {
			word |= adj[i]
		}
		var open uint64
		for ; word != 0; word &= word - 1 {
			i := wi<<6 | bits.TrailingZeros64(word)
			c := caps[i]
			checkCapacity(c, i)
			if c > flowEps {
				open |= word & -word
			}
			dc[i].src, dc[i].snk = c, c
		}
		lp.srcOpen[wi], lp.snkOpen[wi] = open, open
	}
}

// grow sizes the storage for n positions, keeping what is large enough.
func (lp *LP) grow(n int) {
	w := (n + 63) / 64
	lp.n, lp.words = n, w
	if len(lp.dc) < n {
		lp.dc, lp.hi = make([]dcState, n), make([]int32, n)
		lp.nbrs = make([]int32, n*n)
		lp.adj, lp.rev = make([]uint64, n*w), make([]uint64, n*w)
		lp.flow = make([]float64, n*n)
		// A level path alternates left and right copies and visits each
		// at most once.
		lp.path, lp.lim = make([]int32, 2*n), make([]float64, 2*n)
	}
	if len(lp.srcOpen) != w {
		sets := make([]uint64, 7*w)
		lp.srcOpen, lp.snkOpen, lp.live = sets[:w], sets[w:2*w], sets[2*w:3*w]
		lp.visL, lp.visR, lp.frontL, lp.frontR = sets[3*w:4*w], sets[4*w:5*w], sets[5*w:6*w], sets[6*w:]
	}
}

// levels labels the level graph of the residual network as Dinic's BFS
// does and returns t's level, 0 when t is unreachable. Left copies sit at
// odd levels and right copies at even ones: s reaches the left copies
// whose source arc is unsaturated, a left copy every partner's right
// copy, and a right copy t or the left copies it has a reverse arc to.
// Labels stop short of t's level, and a copy's current arc is reset as it
// is labelled. No label is ever cleared: the DFS acts on a copy's level
// only where a residual arc leads to it from a copy at least two below t's
// level, so the copy is below t's level and this phase labelled it.
func (lp *LP) levels() int32 {
	n, w, dc, adj, rev := lp.n, lp.words, lp.dc, lp.adj, lp.rev
	visL, visR, frontL, frontR := lp.visL, lp.visR, lp.frontL, lp.frontR
	snkOpen, live := lp.snkOpen, lp.live
	for k, open := range lp.srcOpen {
		frontL[k], live[k], visL[k], visR[k] = open, open, 0, 0
	}
	for d := int32(1); ; d += 2 {
		// frontL holds the left copies first reached at level d: label
		// them and take the union of their partners' right copies, one
		// word at a time.
		reached, open := false, false
		for k := range frontR {
			var acc uint64
			for wi, word := range frontL {
				if k == 0 {
					visL[wi] |= word
				}
				for ; word != 0; word &= word - 1 {
					i := wi<<6 | bits.TrailingZeros64(word)
					if k == 0 {
						s := &dc[i]
						s.levelL, s.iterL = d, int32(i*n)
					}
					acc |= adj[i*w+k]
				}
			}
			acc &^= visR[k]
			visR[k] |= acc
			frontR[k] = acc
			reached = reached || acc != 0
			open = open || acc&snkOpen[k] != 0
		}
		if !reached {
			return 0
		}
		reached = false
		for k := range frontL {
			var acc uint64
			for wi, word := range frontR {
				for ; word != 0; word &= word - 1 {
					j := wi<<6 | bits.TrailingZeros64(word)
					if k == 0 {
						s := &dc[j]
						s.levelR, s.iterR = d+1, int32(j*n)
					}
					acc |= rev[j*w+k]
				}
			}
			acc &^= visL[k]
			frontL[k] = acc
			reached = reached || acc != 0
		}
		if open {
			return d + 2
		}
		if !reached {
			return 0
		}
	}
}

// blockingFlow is one phase of Dinic's DFS on the levels below t's level
// tl: it pushes augmenting paths until none is left, adding each push to
// total in turn, and returns total.
func (lp *LP) blockingFlow(tl int32, total float64) float64 {
	n, w := lp.n, lp.words
	dc, hi, nbrs, flow, rev := lp.dc, lp.hi, lp.nbrs, lp.flow, lp.rev
	path, lim, live := lp.path, lp.lim, lp.live
	for lw := 0; ; {
		// The source's current arc: the lowest left copy at level 1
		// neither saturated nor given up on.
		for lw < w && live[lw] == 0 {
			lw++
		}
		if lw == w {
			return total
		}
		i := int32(lw<<6 | bits.TrailingZeros64(live[lw]))
		// path[d] is a left copy at even d and a right copy at odd d; its
		// level is d+1.
		path[0], lim[0] = i, dc[i].src
		d := 0
		for d >= 0 {
			u, end := &dc[path[d]], hi[path[d]]
			next := int32(d) + 2 // the level of u's successors
			if d&1 == 0 {
				it := u.iterL
				if next+1 == tl {
					// A right copy one short of t whose sink arc is
					// saturated fails in Dinic's DFS: skip it here.
					for it < end && (dc[nbrs[it]].levelR != next || !(dc[nbrs[it]].snk > flowEps)) {
						it++
					}
				} else {
					for it < end && dc[nbrs[it]].levelR != next {
						it++
					}
				}
				u.iterL = it
				if it < end {
					d++
					path[d], lim[d] = nbrs[it], lim[d-1]
					if next+1 == tl {
						break
					}
					continue
				}
			} else {
				j, it := int(path[d]), u.iterR
				for ; it < end; it++ {
					if k := nbrs[it]; dc[k].levelL == next && flow[int(k)*n+j] > flowEps {
						break
					}
				}
				u.iterR = it
				if it < end {
					k := nbrs[it]
					d++
					path[d], lim[d] = k, min(lim[d-1], flow[int(k)*n+j])
					continue
				}
			}
			// Nothing leaves u on a level path to t: its parent moves
			// past it, as Dinic's loop does when a child returns 0.
			d--
			if d >= 0 {
				if p := &dc[path[d]]; d&1 == 0 {
					p.iterL++
				} else {
					p.iterR++
				}
			}
		}
		if d < 0 {
			live[i>>6] &^= 1 << (i & 63)
			continue
		}
		j := path[d]
		pushed := min(lim[d], dc[j].snk)
		if dc[j].snk -= pushed; !(dc[j].snk > flowEps) {
			lp.snkOpen[j>>6] &^= 1 << (j & 63)
		}
		for ; d > 0; d-- {
			if d&1 == 1 { // path[d-1]'s left copy → path[d]'s right copy
				a, b := int(path[d-1]), int(path[d])
				flow[a*n+b] += pushed
				rev[b*w+a>>6] |= 1 << (a & 63)
			} else { // the reverse arc path[d-1]'s right copy → path[d]'s left
				a, b := int(path[d]), int(path[d-1])
				if flow[a*n+b] -= pushed; !(flow[a*n+b] > flowEps) {
					rev[b*w+a>>6] &^= 1 << (a & 63)
				}
			}
		}
		if dc[i].src -= pushed; !(dc[i].src > flowEps) {
			lp.srcOpen[i>>6] &^= 1 << (i & 63)
			live[i>>6] &^= 1 << (i & 63)
		}
		total += pushed
	}
}
