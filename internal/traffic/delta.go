package traffic

import (
	"fmt"
	"strings"

	"iris/internal/hose"
)

// Delta is a sparse demand update: for each changed DC pair, the new
// absolute demand in wavelengths. It is the unit of work of the
// incremental allocator — a control loop that knows which pairs moved
// hands the allocator a Delta instead of a full matrix, and only those
// pairs (plus any duct-sharing neighbours) are re-solved.
//
// Pairs are keyed canonically; use Set rather than touching Changes
// directly when orientation is not guaranteed.
type Delta struct {
	Changes map[hose.Pair]float64
}

// NewDelta returns an empty delta.
func NewDelta() Delta {
	return Delta{Changes: make(map[hose.Pair]float64)}
}

// Set records a pair's new absolute demand. Negative demands panic, like
// Matrix.Set.
func (d Delta) Set(p hose.Pair, demand float64) {
	if demand < 0 {
		panic(fmt.Sprintf("traffic: negative demand %v for %v", demand, p))
	}
	d.Changes[p.Canonical()] = demand
}

// Len returns the number of changed pairs.
func (d Delta) Len() int { return len(d.Changes) }

// pairs returns the changed pairs in deterministic (A, then B) order.
func (d Delta) pairs() []hose.Pair {
	out := make([]hose.Pair, 0, len(d.Changes))
	for p := range d.Changes {
		out = append(out, p)
	}
	hose.SortPairs(out)
	return out
}

// ApplyTo writes the delta's demands into a matrix.
func (d Delta) ApplyTo(m *Matrix) {
	for p, v := range d.Changes {
		m.Set(p, v)
	}
}

// String renders the delta compactly for logs and trace attributes.
func (d Delta) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "delta{%d pairs", len(d.Changes))
	if n := len(d.Changes); n > 0 && n <= 4 {
		for _, p := range d.pairs() {
			fmt.Fprintf(&b, " %d-%d=%.1f", p.A, p.B, d.Changes[p])
		}
	}
	b.WriteString("}")
	return b.String()
}

// DiffMatrices returns the delta that turns old into new: every pair
// whose demand differs between the two matrices, mapped to its demand in
// new. Pairs absent from a matrix count as zero demand, so DCs may be
// added or drained through a diff.
func DiffMatrices(old, new *Matrix) Delta {
	d := NewDelta()
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
