package traffic

import "iris/internal/hose"

// Delta is a sparse demand update: for each changed DC pair, the new
// absolute demand in wavelengths. It is the unit of work of the
// incremental allocator — a control loop that knows which pairs moved
// hands the allocator a Delta instead of a full matrix, and only those
// pairs (plus any duct-sharing neighbours) are re-solved.
//
// Pairs are keyed canonically (hose.Pair.Canonical).
type Delta struct {
	Changes map[hose.Pair]float64
}

// Len returns the number of changed pairs.
func (d Delta) Len() int { return len(d.Changes) }

// ApplyTo writes the delta's demands into a matrix.
func (d Delta) ApplyTo(m *Matrix) {
	for p, v := range d.Changes {
		m.Set(p, v)
	}
}

// DiffMatrices returns the delta that turns old into new: every pair
// whose demand differs between the two matrices, mapped to its demand in
// new. Pairs absent from a matrix count as zero demand, so DCs may be
// added or drained through a diff.
func DiffMatrices(old, new *Matrix) Delta {
	d := Delta{Changes: make(map[hose.Pair]float64)}
	for p, v := range new.Demand {
		if old.Demand[p] != v {
			d.Changes[p] = v
		}
	}
	for p := range old.Demand {
		if _, ok := new.Demand[p]; !ok && old.Demand[p] != 0 {
			d.Changes[p] = 0
		}
	}
	return d
}
