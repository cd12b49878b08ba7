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
// at the best one. It opens from the verdicts the evaluator keeps with the
// routes (Route.overSpan; no path is amplified yet), in pair order.
// Amplifier counts accumulate across scenarios in p.ampsArr (amplifiers
// are physical installations shared by all scenarios). Candidate sets live
// in generation-stamped per-node lists, so the loop allocates nothing once
// the planner is warm.
func (p *Planner) placeAmps(recs []pathRec) error {
	pend := p.pend[:0]
	for i := range recs {
		if recs[i].overSpan {
			pend = append(pend, int32(i))
		}
	}

	for len(pend) > 0 {
		// Candidate locations: interior nodes whose amplifier would clear
		// the path's segment-loss violation without creating another. A
		// path that has none is recorded and leaves the list: no later
		// placement changes it.
		p.candSeq++
		if p.candSeq == 0 { // stamp wraparound: invalidate all marks
			clear(p.candGen)
			p.candSeq = 1
		}
		p.candNodes = p.candNodes[:0]
		k := 0
		for _, ri := range pend {
			pr := &recs[ri]
			found := false
			for _, v := range pr.Nodes[1 : len(pr.Nodes)-1] {
				if !p.ev.spanExceeded(pr.Route, v) {
					if p.candGen[v] != p.candSeq {
						p.candGen[v] = p.candSeq
						p.candOf[v] = p.candOf[v][:0]
						p.candNodes = append(p.candNodes, int32(v))
					}
					p.candOf[v] = append(p.candOf[v], ri)
					found = true
				}
			}
			if !found {
				p.plan.Viol = append(p.plan.Viol, fmt.Sprintf(
					"pair %d-%d: no amplifier location can satisfy TC1 (%.1f km path)",
					pr.Pair.A, pr.Pair.B, pr.TotalKM))
				continue
			}
			pend[k] = ri
			k++
		}
		pend = pend[:k]
		if len(pend) == 0 {
			break
		}

		best := p.pickAmpLocation(recs)
		for _, ri := range p.candOf[best] {
			recs[ri].ampNode = best
		}

		// Amplifiers at a site amplify one fiber each; the site needs as
		// many as the worst-case load of the pairs amplified there (§4.1
		// applied to amplifier demand, per Appendix A).
		p.idxBuf = p.idxBuf[:0]
		for i := range recs {
			if recs[i].ampNode == best {
				p.idxBuf = append(p.idxBuf, recs[i].PairIdx)
			}
		}
		need := p.ev.pairsFor(p.idxBuf)
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
			if p.ev.spanExceeded(recs[ri].Route, recs[ri].ampNode) {
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
// pass deterministic regardless of candidate discovery order.
func (p *Planner) pickAmpLocation(recs []pathRec) int {
	best := -1
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
			best, bestScore, bestResolved = v, score, len(cl)
		}
	}
	return best
}
