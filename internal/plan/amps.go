package plan

import (
	"fmt"
	"math"

	"iris/internal/optics"
)

// ossTraversals counts the path's optical-switch traversals: one at each
// terminal, one per switched interior node, plus one more where the
// loopback amplifier adds a second pass (matching elementsFor). A path
// with no amplifier and no bypass — nearly every path of a scenario, when
// cut-through placement opens — switches at every node it has, and an
// unrouted pair's empty path at its two terminals.
func ossTraversals(pr *pathRec) int {
	if pr.ampNode < 0 && len(pr.bypass) == 0 {
		return max(2, len(pr.Ducts)+1)
	}
	n := 2
	for i := 0; i < len(pr.Ducts)-1; i++ {
		v := pr.Nodes[i+1]
		if pr.bypassed(v) {
			continue
		}
		n++
		if v == pr.ampNode {
			n++
		}
	}
	return n
}

// reconfigViolated reports whether the path exceeds the TC4 switching
// budget — the allocation-free equivalent of a ReconfigLoss check.
func reconfigViolated(pr *pathRec) bool {
	return ossTraversals(pr) > optics.MaxOSSPerPath
}

// placeAmps runs Algorithm 2 for one scenario: while paths violate the
// segment-loss constraint (TC1), score every candidate amplifier location
// by constraint resolutions per newly needed amplifier and place greedily
// at the best one. It opens from the routes the evaluator flagged over the
// span limit, in pair order, and takes each one's candidates — the
// interior nodes whose amplifier clears it — from the evaluator, which
// keeps them on the slot until the route changes: no path is amplified
// yet, and a path keeps its candidates until it gets one. Amplifier
// counts accumulate across scenarios in p.ampsArr (amplifiers are
// physical installations shared by all scenarios). Candidate sets live in
// generation-stamped per-node lists, so the loop allocates nothing once
// the planner is warm.
func (p *Planner) placeAmps(recs []pathRec) error {
	pend := appendPairs(p.pend[:0], p.ev.flaggedSet(overSpan))

	for len(pend) > 0 {
		// A path that has no candidate is recorded and leaves the list: no
		// later placement changes it.
		p.candSeq++
		if p.candSeq == 0 { // stamp wraparound: invalidate all marks
			clear(p.candGen)
			p.candSeq = 1
		}
		p.candNodes = p.candNodes[:0]
		k := 0
		for _, ri := range pend {
			pr := &recs[ri]
			sites := p.ev.ampSites(pr.Route)
			if len(sites) == 0 {
				p.plan.Viol = append(p.plan.Viol, fmt.Sprintf(
					"pair %d-%d: no amplifier location can satisfy TC1 (%.1f km path)",
					pr.Pair.A, pr.Pair.B, pr.TotalKM))
				continue
			}
			for _, v := range sites {
				if p.candGen[v] != p.candSeq {
					p.candGen[v] = p.candSeq
					p.candOf[v] = p.candOf[v][:0]
					p.candNodes = append(p.candNodes, int32(v))
				}
				p.candOf[v] = append(p.candOf[v], ri)
			}
			pend[k] = ri
			k++
		}
		pend = pend[:k]
		if len(pend) == 0 {
			break
		}

		// Amplifiers at a site amplify one fiber each; the site needs as
		// many as the worst-case load of the pairs amplified there (§4.1
		// applied to amplifier demand, per Appendix A). Those are its
		// candidates: a site picked once is no pending path's candidate
		// again.
		best, need := p.pickAmpLocation(recs)
		for _, ri := range p.candOf[best] {
			recs[ri].ampNode = best
			p.marked = append(p.marked, ri)
		}
		if need > p.ampsArr[best] {
			if p.ampsArr[best] == 0 {
				p.ampsTouched = append(p.ampsTouched, int32(best))
			}
			p.ampsArr[best] = need
		}

		// TC2 allows one inline amplifier, and a path got its own only
		// from a candidate that clears it: what is left has none yet.
		k = 0
		for _, ri := range pend {
			if recs[ri].ampNode < 0 {
				pend[k] = ri
				k++
			}
		}
		pend = pend[:k]
	}
	p.pend = pend
	return nil
}

// pickAmpLocation scores candidate amplifier sites: resolved paths per
// amplifier that must be newly installed, preferring sites whose existing
// amplifiers (from earlier scenarios) can be reused for free. Ties break
// on more paths resolved, then the smaller node ID, keeping the greedy
// pass deterministic regardless of candidate discovery order. It returns
// the site and the amplifiers its candidates need there.
func (p *Planner) pickAmpLocation(recs []pathRec) (best, need int) {
	best = -1
	var bestScore float64
	bestResolved := 0
	for _, v32 := range p.candNodes {
		v := int(v32)
		cl := p.candOf[v]
		p.idxBuf = p.idxBuf[:0]
		for _, ri := range cl {
			p.idxBuf = append(p.idxBuf, recs[ri].PairIdx)
		}
		noa := p.ev.pairsFor(p.idxBuf)
		ntbp := noa - p.ampsArr[v]
		if ntbp < 0 {
			ntbp = 0
		}
		var score float64
		if ntbp == 0 {
			score = math.Inf(1) // free: existing amplifiers suffice
		} else {
			score = float64(len(cl)) / float64(ntbp)
		}
		if best < 0 || score > bestScore ||
			(score == bestScore && len(cl) > bestResolved) ||
			(score == bestScore && len(cl) == bestResolved && v < best) {
			best, need, bestScore, bestResolved = v, noa, score, len(cl)
		}
	}
	return best, need
}
