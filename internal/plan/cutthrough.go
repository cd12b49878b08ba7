package plan

import "fmt"

// placeCutThroughs resolves reconfiguration-budget violations (TC4: too
// many optical switch traversals on a path) by building cut-through links:
// uninterrupted fiber runs that traverse one or more switching points
// without being switched (Appendix A). Candidates are scored by paths
// resolved per duct of extra fiber; the best is built, affected paths mark
// the bypassed nodes, and the loop repeats until no violations remain.
// Nothing is bypassed yet when it opens, so the violating paths are among
// the routes the evaluator flagged over the budget with no amplifier and
// the paths Algorithm 2 just amplified; later scans re-check the pending
// paths only.
//
// A candidate's identity — (from, to, duct sequence) — is interned per
// iteration in p.ctIter; the committed cut-throughs of the whole solve
// are interned in p.ctAll with their duct and interior lists in flat
// slabs, so the loop allocates nothing once the planner is warm.
func (p *Planner) placeCutThroughs(recs []pathRec) error {
	open := p.openOSS
	copy(open, p.ev.flaggedSet(overOSS))
	for _, ri := range p.marked {
		open[ri>>6] |= 1 << (ri & 63)
	}
	pend := appendPairs(p.pend[:0], open)
	k := 0
	for _, ri := range pend {
		if reconfigViolated(&recs[ri]) {
			pend[k] = ri
			k++
		}
	}
	pend = pend[:k]
	for iter := 0; len(pend) > 0; iter++ {
		if iter > len(recs)*8 {
			return fmt.Errorf("plan: cut-through placement did not converge")
		}
		p.ctIter.reset()
		p.ctIterCands = p.ctIterCands[:0]
		p.ctIterInterior = p.ctIterInterior[:0]
		for _, ri := range pend {
			p.cutCandidates(recs, ri)
		}
		if len(p.ctIterCands) == 0 {
			for _, ri := range pend {
				pr := &recs[ri]
				p.plan.Viol = append(p.plan.Viol, fmt.Sprintf(
					"pair %d-%d: no cut-through can satisfy TC4", pr.Pair.A, pr.Pair.B))
			}
			break
		}

		// Deterministic greedy choice: paths resolved per duct of fiber,
		// ties broken by the packed-key order (packedCmp) so the choice
		// matches a sorted sweep with strict improvement.
		best := -1
		var bestScore float64
		for ci := range p.ctIterCands {
			key := p.ctIter.key(ci)
			score := float64(len(p.ctResolve[ci])) / float64(len(key)-2)
			if best < 0 || score > bestScore ||
				(score == bestScore && packedCmp(key, p.ctIter.key(best)) < 0) {
				best, bestScore = ci, score
			}
		}

		bc := &p.ctIterCands[best]
		key := p.ctIter.key(best)
		ducts := key[2:]
		interior := p.ctIterInterior[bc.intOff : bc.intOff+bc.intLen]
		for _, ri := range p.ctResolve[best] {
			pr := &recs[ri]
			if len(pr.bypass) == 0 {
				p.marked = append(p.marked, ri)
			}
			for _, n := range interior {
				if !pr.bypassed(n) {
					pr.bypass = append(pr.bypass, n)
				}
			}
			for _, d := range ducts {
				if !pr.onCutThrough(int(d)) {
					pr.cutDucts = append(pr.cutDucts, int(d))
					p.ev.ride(pr.PairIdx, int(d))
				}
			}
		}

		// Fiber on the cut-through: worst-case load of the pairs using it,
		// maximised across scenarios (the link is physical infrastructure).
		p.idxBuf = p.idxBuf[:0]
		for _, ri := range p.ctResolve[best] {
			p.idxBuf = append(p.idxBuf, recs[ri].PairIdx)
		}
		need := p.ev.pairsFor(p.idxBuf)
		id, added := p.ctAll.intern(key)
		if added {
			ct := ctRec{
				from: int(key[0]), to: int(key[1]),
				ductOff: int32(len(p.ctDuctSlab)), intOff: int32(len(p.ctIntSlab)),
			}
			for _, d := range ducts {
				p.ctDuctSlab = append(p.ctDuctSlab, int(d))
			}
			for _, n := range interior {
				p.ctIntSlab = append(p.ctIntSlab, n)
			}
			ct.ductLen = int32(len(ducts))
			ct.intLen = int32(len(interior))
			p.ctRecs = append(p.ctRecs, ct)
		}
		ct := &p.ctRecs[id]
		if need > ct.pairs {
			delta := need - ct.pairs
			ct.pairs = need
			for _, d := range ducts {
				p.ductUse(int(d)).CutThroughPairs += delta
			}
		}

		// A bypass only takes traversals off a path, so the paths that
		// still violate are among the pending ones, in the same order.
		k := 0
		for _, ri := range pend {
			if reconfigViolated(&recs[ri]) {
				pend[k] = ri
				k++
			}
		}
		pend = pend[:k]
	}
	p.pend = pend
	return nil
}

// cutCandidates enumerates the contiguous runs of switched interior nodes
// a cut-through could bypass on path ri, interning each candidate's
// identity in p.ctIter and recording the path against it. The amplified
// node cannot be bypassed (the path needs its amplifier). Candidates need
// not resolve the violation outright — the greedy loop applies
// cut-throughs until the budget is met, and full bypassing always fits it
// (at most two terminal plus two loopback OSS traversals remain). The
// first path to propose a candidate fixes its interior, matching the
// map-based planner's first-writer-wins behaviour.
func (p *Planner) cutCandidates(recs []pathRec, ri int32) {
	pr := &recs[ri]
	n := len(pr.Nodes)
	for i := 0; i < n-1; i++ {
		for j := i + 2; j < n; j++ {
			// Bypass interior nodes strictly between nodes[i] and nodes[j].
			p.tmpInterior = p.tmpInterior[:0]
			valid := true
			for _, v := range pr.Nodes[i+1 : j] {
				if v == pr.ampNode {
					valid = false
					break
				}
				if pr.bypassed(v) {
					continue // already bypassed; no gain from this run
				}
				p.tmpInterior = append(p.tmpInterior, v)
			}
			if !valid || len(p.tmpInterior) == 0 {
				continue
			}
			p.tmpKey = append(p.tmpKey[:0], int32(pr.Nodes[i]), int32(pr.Nodes[j]))
			for k := i; k < j; k++ {
				p.tmpKey = append(p.tmpKey, int32(pr.Ducts[k].ID))
			}
			id, added := p.ctIter.intern(p.tmpKey)
			if added {
				p.ctIterCands = append(p.ctIterCands, ctIterCand{
					intOff: int32(len(p.ctIterInterior)),
					intLen: int32(len(p.tmpInterior)),
				})
				p.ctIterInterior = append(p.ctIterInterior, p.tmpInterior...)
				if id >= len(p.ctResolve) {
					p.ctResolve = append(p.ctResolve, nil)
				}
				p.ctResolve[id] = p.ctResolve[id][:0]
			}
			p.ctResolve[id] = append(p.ctResolve[id], ri)
		}
	}
}
