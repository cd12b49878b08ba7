package core

import (
	"slices"
	"sort"

	"iris/internal/hose"
	"iris/internal/jsonw"
	"iris/internal/plan"
)

// PairDelta records how one DC pair's circuit assignment changed between
// two allocations. It carries absolute before/after values rather than
// signed deltas so that a sequence of PairDeltas composes by assignment:
// replaying them in order against any starting allocation reproduces the
// final one exactly (see ApplyDeltas), which is what lets the history
// lake reconstruct the live allocation from records alone.
type PairDelta struct {
	A           int `json:"a"`
	B           int `json:"b"`
	OldFibers   int `json:"old_fibers"`
	NewFibers   int `json:"new_fibers"`
	OldResidual int `json:"old_residual"`
	NewResidual int `json:"new_residual"`
}

func (d PairDelta) AppendJSON(b []byte) []byte {
	b = jsonw.Int(append(b, `{"a":`...), d.A)
	b = jsonw.Int(append(b, `,"b":`...), d.B)
	b = jsonw.Int(append(b, `,"old_fibers":`...), d.OldFibers)
	b = jsonw.Int(append(b, `,"new_fibers":`...), d.NewFibers)
	b = jsonw.Int(append(b, `,"old_residual":`...), d.OldResidual)
	b = jsonw.Int(append(b, `,"new_residual":`...), d.NewResidual)
	return append(b, '}')
}

// Pair returns the canonical DC pair the delta is about.
func (d PairDelta) Pair() hose.Pair { return hose.Pair{A: d.A, B: d.B}.Canonical() }

// DiffAlloc returns the per-pair changes from oldA to newA, in pair order.
// It is the one allocation diff: it reports residual-wavelength changes as
// well as fiber moves, because the history lake needs enough to reproduce
// the allocation; Moves projects it onto the reconfiguration work.
func DiffAlloc(oldA, newA Allocation) []PairDelta {
	pairSet := make(map[hose.Pair]bool)
	for p := range oldA.Fibers {
		pairSet[p] = true
	}
	for p := range newA.Fibers {
		pairSet[p] = true
	}
	for p := range oldA.Residual {
		pairSet[p] = true
	}
	for p := range newA.Residual {
		pairSet[p] = true
	}
	pairs := make([]hose.Pair, 0, len(pairSet))
	for p := range pairSet {
		pairs = append(pairs, p)
	}
	hose.SortPairs(pairs)

	var deltas []PairDelta
	for _, p := range pairs {
		d := PairDelta{
			A: p.A, B: p.B,
			OldFibers:   oldA.Fibers[p],
			NewFibers:   newA.Fibers[p],
			OldResidual: oldA.Residual[p],
			NewResidual: newA.Residual[p],
		}
		if d.OldFibers == d.NewFibers && d.OldResidual == d.NewResidual {
			continue
		}
		deltas = append(deltas, d)
	}
	return deltas
}

// ApplyDeltas applies pair deltas to an allocation, returning a new
// allocation; the input is not modified. Entries that go to zero are
// deleted, matching how the live books drop drained pairs, so composing
// every record's deltas from an empty allocation yields a map-equal copy
// of the live one.
func ApplyDeltas(a Allocation, deltas []PairDelta) Allocation {
	out := Allocation{
		Fibers:   make(map[hose.Pair]int, len(a.Fibers)+len(deltas)),
		Residual: make(map[hose.Pair]int, len(a.Residual)+len(deltas)),
	}
	for p, v := range a.Fibers {
		out.Fibers[p] = v
	}
	for p, v := range a.Residual {
		out.Residual[p] = v
	}
	for _, d := range deltas {
		p := d.Pair()
		if d.NewFibers == 0 && d.NewResidual == 0 {
			delete(out.Fibers, p)
			delete(out.Residual, p)
			continue
		}
		out.Fibers[p] = d.NewFibers
		out.Residual[p] = d.NewResidual
	}
	for p, v := range out.Fibers {
		if v == 0 && out.Residual[p] == 0 {
			delete(out.Fibers, p)
			delete(out.Residual, p)
		}
	}
	return out
}

// Move is one pair whose circuit assignment changes between two
// allocations — the unit of reconfiguration work.
type Move struct {
	Pair hose.Pair
	// FibersDelta is the change in dedicated fibers (signed).
	FibersDelta int
	// FracAffected is the fraction of the pair's old capacity that is
	// unavailable during the fiber switch — what the flow simulator
	// models as a Dip.
	FracAffected float64
}

// Moves keeps the pair deltas that switch fibers, in their order. Pairs
// with unchanged fiber counts do not appear: residual-wavelength changes
// retune transceivers (sub-millisecond) without switching fibers (§5.2).
func Moves(deltas []PairDelta) []Move {
	var moves []Move
	for _, pd := range deltas {
		delta := pd.NewFibers - pd.OldFibers
		if delta == 0 {
			continue
		}
		// Capacity affected during the switch: only circuits being torn
		// down carry traffic that must drain (§5.2); fibers joining a
		// growing circuit were idle, so existing capacity is untouched.
		frac := 0.0
		if delta < 0 {
			frac = min(1, float64(-delta)/float64(max(1, pd.OldFibers)))
		}
		moves = append(moves, Move{Pair: pd.Pair(), FibersDelta: delta, FracAffected: frac})
	}
	return moves
}

// Diff returns the moves needed to go from an old allocation to a new
// one, in pair order.
func Diff(oldA, newA Allocation) []Move { return Moves(DiffAlloc(oldA, newA)) }

// ride books one pair's circuit change onto the ducts of its planned
// path. It is the only statement of the §4.3 occupancy rule: full fibers
// occupy base capacity on every duct of the path except those the pair's
// cut-through covers (there they ride the dedicated cut-through fiber),
// and the pair's one residual fiber occupies every duct. book receives
// each duct whose occupancy moves, with the signed change.
func ride(info *plan.PathInfo, fibers, residual int, book func(duct, fibers, residual int)) {
	if fibers == 0 && residual == 0 {
		return
	}
	for _, duct := range info.Ducts {
		f := fibers
		if f != 0 && slices.Contains(info.CutDucts, duct) {
			f = 0
		}
		if f != 0 || residual != 0 {
			book(duct, f, residual)
		}
	}
}

// residualUse is a pair's residual-fiber count: one when it carries any
// residual wavelengths — occupancy counts duct users, not wavelengths.
func residualUse(wavelengths int) int {
	if wavelengths > 0 {
		return 1
	}
	return 0
}

// Occupancy derives per-duct usage from an allocation by the books' own
// rule: full fiber-pairs in service and residual-fiber users per duct.
// Pairs with no planned path are skipped. It is what an AllocState that
// holds the same allocation has on its books.
func Occupancy(d *Deployment, a Allocation) (fibers, residual map[int]int) {
	fibers = make(map[int]int)
	residual = make(map[int]int)
	for p, info := range d.Plan.Paths {
		ride(info, a.Fibers[p], residualUse(a.Residual[p]), func(duct, f, r int) {
			fibers[duct] += f
			residual[duct] += r
		})
	}
	return fibers, residual
}

// DuctDelta is the physical-layer view of a reconfiguration: how one
// duct's occupancy moved — full fiber-pairs in service and residual-fiber
// users. Signed; zero-change ducts are omitted.
type DuctDelta struct {
	Duct     int `json:"duct"`
	Fibers   int `json:"fibers"`
	Residual int `json:"residual"`
}

func (d DuctDelta) AppendJSON(b []byte) []byte {
	b = jsonw.Int(append(b, `{"duct":`...), d.Duct)
	b = jsonw.Int(append(b, `,"fibers":`...), d.Fibers)
	b = jsonw.Int(append(b, `,"residual":`...), d.Residual)
	return append(b, '}')
}

// DuctDeltas projects pair deltas onto the ducts their planned paths
// ride, by the books' occupancy rule. Pairs with no planned path (drained
// unknowns) are skipped. Results are sorted by duct ID.
func (d *Deployment) DuctDeltas(deltas []PairDelta) []DuctDelta {
	byDuct := make(map[int]*DuctDelta)
	book := func(duct, f, r int) {
		dd := byDuct[duct]
		if dd == nil {
			dd = &DuctDelta{Duct: duct}
			byDuct[duct] = dd
		}
		dd.Fibers += f
		dd.Residual += r
	}
	for _, pd := range deltas {
		if info, ok := d.Plan.Paths[pd.Pair()]; ok {
			ride(info, pd.NewFibers-pd.OldFibers,
				residualUse(pd.NewResidual)-residualUse(pd.OldResidual), book)
		}
	}
	out := make([]DuctDelta, 0, len(byDuct))
	for _, dd := range byDuct {
		if dd.Fibers != 0 || dd.Residual != 0 {
			out = append(out, *dd)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Duct < out[j].Duct })
	return out
}
