package core

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"

	"iris/internal/hose"
	"iris/internal/plan"
	"iris/internal/traffic"
)

// fallbackFrac is the delta-cascade threshold: when more than this
// fraction of the region's planned DC pairs changed demand, AllocateDelta
// rebuilds the books from empty instead of editing them — past that point
// a rebuild touches barely more state, and it sheds the rounding the hose
// aggregates pick up from repeated in-place edits.
const fallbackFrac = 0.5

// AllocState is an Allocation plus the bookkeeping it was derived from:
// the demand it satisfies, each DC's aggregate hose usage, and the
// per-duct fiber occupancy. Retaining the books is what makes delta
// allocation possible — AllocateDelta re-solves only the pairs a
// traffic.Delta names and re-audits only the ducts their circuits touch,
// instead of recomputing the whole region.
//
// An AllocState is single-owner mutable state: AllocateDelta updates it in
// place. It is not safe for concurrent use; callers that publish the
// contained Allocation elsewhere should hand out Snapshot().
type AllocState struct {
	dep *Deployment
	dcs []int
	books
	// ev is the plan's evaluator, routed at the failure-free scenario: its
	// crossing sets say which pairs ride a duct. It drives the cascade
	// accounting — when a duct gains or loses headroom, these are the
	// pairs whose admissibility is re-audited. An evaluator is not safe
	// for concurrent use and a Deployment is shared, so it lives here.
	ev *plan.Evaluator

	// Scratch buffers reused across AllocateDelta calls so the hot path
	// allocates O(delta) rather than O(region). Generation stamps avoid
	// clearing between calls; AllocState is single-owner, so sharing them
	// is safe.
	gen        uint32
	ductGen    []uint32 // per duct ID: generation that last touched it
	touched    []int    // touched duct IDs, this generation
	neighbours []int32  // pair indices crossing a touched duct
	aggDCs     []int    // affected DCs, this generation
	aggDiffs   []float64
}

// books is what an allocation keeps account of. A fallback swaps the whole
// set for a rebuilt one, and its Undo swaps the old set back.
type books struct {
	alloc Allocation
	// demand holds the nonzero demand per (canonical) pair.
	demand map[hose.Pair]float64
	// perDC is each DC's aggregate demand — the hose usage the feasibility
	// check audits.
	perDC map[int]float64
	// fibersByDuct / residualByDuct are the duct occupancy, as ride books
	// it: full fiber-pairs and residual-fiber users per duct.
	fibersByDuct   map[int]int
	residualByDuct map[int]int
}

// pairDemand is one pair's demand.
type pairDemand struct {
	pair   hose.Pair
	demand float64
}

// nextGen advances the scratch generation, resetting the stamp buffers on
// wraparound.
func (st *AllocState) nextGen() {
	st.gen++
	if st.gen == 0 {
		clear(st.ductGen)
		st.gen = 1
	}
	st.touched = st.touched[:0]
	st.aggDCs = st.aggDCs[:0]
	st.aggDiffs = st.aggDiffs[:0]
}

// markDuct records a duct as touched this generation.
func (st *AllocState) markDuct(duct int) {
	if duct >= len(st.ductGen) {
		st.ductGen = append(st.ductGen, make([]uint32, duct+1-len(st.ductGen))...)
	}
	if st.ductGen[duct] != st.gen {
		st.ductGen[duct] = st.gen
		st.touched = append(st.touched, duct)
	}
}

// Snapshot returns a deep copy of the current circuit assignment, safe to
// retain across further delta applications.
func (st *AllocState) Snapshot() Allocation {
	return Allocation{Fibers: maps.Clone(st.alloc.Fibers), Residual: maps.Clone(st.alloc.Residual)}
}

// demandMatrix reconstructs the demand matrix the state satisfies.
func (st *AllocState) demandMatrix() *traffic.Matrix {
	m := traffic.NewMatrix(st.dcs)
	for p, v := range st.demand {
		m.Set(p, v)
	}
	return m
}

// DeltaStats describes how one AllocateDelta was solved.
type DeltaStats struct {
	// Incremental is true when the delta path ran; false when the engine
	// fell back to a from-scratch solve.
	Incremental bool
	// FallbackReason says why a full solve ran (empty when Incremental).
	FallbackReason string
	// PairsResolved is the number of pairs whose circuits were recomputed.
	PairsResolved int
	// PairsRevalidated counts duct-sharing neighbours whose admissibility
	// was re-audited because a duct they ride gained or lost headroom.
	PairsRevalidated int
	// DuctsTouched is the number of ducts whose occupancy changed.
	DuctsTouched int
}

// Undo lets a caller revert one AllocateDelta after a downstream failure
// (e.g. the devices rejected the reconfiguration the new allocation
// implies). The zero Undo is a no-op.
type Undo struct {
	st *AllocState
	// prev holds the old demands of the changed pairs, in pair order;
	// rollback re-applies them through the same primitive.
	prev []pairDemand
	// books holds the wholesale pre-fallback state when the books were
	// rebuilt; swap-restore is cheaper than replaying a large delta.
	books *books
}

// Rollback restores the state to its books before the AllocateDelta that
// produced this undo. It is one-shot: further calls no-op.
func (u *Undo) Rollback() {
	st := u.st
	if st == nil {
		return
	}
	u.st = nil
	if u.books != nil {
		st.books = *u.books
		return
	}
	// Re-applying the inverse delta restores a state known feasible, so
	// neither the hose nor the duct audit can fail here.
	st.nextGen()
	for _, pd := range u.prev {
		st.applyPairDelta(pd.pair, pd.demand)
	}
}

// allocFull is the from-scratch allocation behind Allocate, AllocateState
// and the delta engine's fallback: empty books, and the matrix applied to
// them as one delta.
func (d *Deployment) allocFull(m *traffic.Matrix) (*AllocState, error) {
	st := &AllocState{
		dep: d,
		dcs: append([]int(nil), m.DCs...),
		books: books{
			alloc: Allocation{
				Fibers:   make(map[hose.Pair]int),
				Residual: make(map[hose.Pair]int),
			},
			demand:         make(map[hose.Pair]float64),
			perDC:          make(map[int]float64, len(m.DCs)),
			fibersByDuct:   make(map[int]int),
			residualByDuct: make(map[int]int),
		},
		touched:  make([]int, 0, len(d.Plan.Ducts)),
		aggDCs:   make([]int, 0, len(m.DCs)),
		aggDiffs: make([]float64, 0, len(m.DCs)),
	}
	changed := make([]hose.Pair, 0, len(m.Demand))
	for _, p := range m.Pairs() {
		if p = p.Canonical(); m.Demand[p] != 0 {
			changed = append(changed, p)
		}
	}
	if err := st.apply(changed, m.Demand); err != nil {
		return nil, err
	}
	return st, nil
}

// AllocateState runs a full allocation like Allocate but retains the
// occupancy books, so subsequent demand shifts can be applied with
// AllocateDelta instead of re-solving the region.
func (d *Deployment) AllocateState(m *traffic.Matrix) (*AllocState, error) {
	st, err := d.allocFull(m)
	if err != nil {
		return nil, err
	}
	st.ev = d.Plan.NewEvaluator()
	st.ev.Route()
	return st, nil
}

// AllocateDelta applies a sparse demand update to an AllocState produced
// by AllocateState (or a previous AllocateDelta): the pairs the delta
// names are re-solved, the ducts their circuits ride are re-audited
// against provisioned capacity (together with the hose feasibility of the
// affected DCs), and every other pair's books are left untouched. When
// the delta covers more than fallbackFrac of the region's planned pairs
// the engine rebuilds the books from empty instead, which is cheaper at
// that size, and says so in the returned DeltaStats.
//
// On success the state is updated in place and the returned Undo can
// revert it (for callers whose downstream commit fails). On error the
// state is unchanged and the allocation it holds remains valid.
func (d *Deployment) AllocateDelta(st *AllocState, delta traffic.Delta) (Undo, DeltaStats, error) {
	if st == nil || st.dep != d || st.ev == nil {
		return Undo{}, DeltaStats{}, fmt.Errorf("core: AllocateDelta needs a state from this deployment's AllocateState")
	}

	// Normalize: drop no-op entries so stats and the fallback decision see
	// the real cascade size.
	changed := make([]hose.Pair, 0, delta.Len())
	for p, v := range delta.Changes {
		if st.demand[p] != v {
			changed = append(changed, p)
		}
	}
	if len(changed) == 0 {
		return Undo{}, DeltaStats{Incremental: true}, nil
	}
	hose.SortPairs(changed)

	if total := len(d.Plan.Paths); float64(len(changed)) > fallbackFrac*float64(total) {
		return st.fallbackFull(delta, fmt.Sprintf("delta covers %d of %d pairs", len(changed), total))
	}

	undo := Undo{st: st, prev: make([]pairDemand, len(changed))}
	for i, p := range changed {
		undo.prev[i] = pairDemand{p, st.demand[p]}
	}
	if err := st.apply(changed, delta.Changes); err != nil {
		undo.Rollback()
		return Undo{}, DeltaStats{}, err
	}

	// Cascade accounting: the changed pairs' duct-sharing neighbours are
	// the pairs whose admissibility the duct audit just re-established.
	st.neighbours = st.ev.Crossing(st.touched, st.neighbours[:0])
	revalidated := len(st.neighbours)
	for _, p := range changed {
		if idx, ok := st.ev.PairIndex(p); ok {
			if _, rides := slices.BinarySearch(st.neighbours, int32(idx)); rides {
				revalidated--
			}
		}
	}
	return undo, DeltaStats{
		Incremental:      true,
		PairsResolved:    len(changed),
		PairsRevalidated: revalidated,
		DuctsTouched:     len(st.touched),
	}, nil
}

// apply is the allocator's one primitive: it moves the changed pairs
// (canonical, in pair order) to their demand in next and checks the three
// admission rules in a fixed order, so a rejection names the same culprit
// on every run — the lowest DC over its hose capacity, else the first
// pair without a planned path, else the lowest duct over its provisioned
// fiber. The hose and path checks precede any mutation; a duct rejection
// leaves the books edited and the caller reverts them (or discards a
// fresh state). A from-scratch allocation is apply on empty books.
func (st *AllocState) apply(changed []hose.Pair, next map[hose.Pair]float64) error {
	d := st.dep
	st.nextGen()
	for _, p := range changed {
		diff := next[p] - st.demand[p]
		st.addAggDiff(p.A, diff)
		st.addAggDiff(p.B, diff)
	}
	over := -1
	for i, dc := range st.aggDCs {
		if st.hoseUse(i) > st.hoseCap(dc)+1e-9 && (over < 0 || dc < st.aggDCs[over]) {
			over = i
		}
	}
	if over >= 0 {
		dc := st.aggDCs[over]
		return fmt.Errorf("core: DC %d aggregate demand %.1f wavelengths exceeds capacity %.0f",
			dc, st.hoseUse(over), st.hoseCap(dc))
	}

	// Every changed pair must have a planned path (unless it is being
	// drained to zero and never carried circuits).
	for _, p := range changed {
		if _, ok := d.Plan.Paths[p]; !ok && next[p] > 0 {
			return fmt.Errorf("core: no planned path for pair %d-%d", p.A, p.B)
		}
	}
	for _, p := range changed {
		st.applyPairDelta(p, next[p])
	}

	// Re-audit the ducts whose occupancy moved; untouched ducts kept their
	// (previously validated) occupancy.
	sort.Ints(st.touched)
	for _, duct := range st.touched {
		var base, res int
		du := d.Plan.Ducts[duct]
		if du != nil {
			base, res = du.BasePairs, du.ResidualPairs
		}
		if used := st.fibersByDuct[duct]; du == nil || used > base {
			return fmt.Errorf("core: duct %d needs %d full fibers, provisioned %d", duct, used, base)
		}
		if used := st.residualByDuct[duct]; used > res {
			return fmt.Errorf("core: duct %d needs %d residual fibers, provisioned %d", duct, used, res)
		}
	}
	return nil
}

// hoseUse is the aggregate demand the i-th affected DC would carry after
// the delta being applied; hoseCap is a DC's hose capacity in wavelengths.
func (st *AllocState) hoseUse(i int) float64 { return st.perDC[st.aggDCs[i]] + st.aggDiffs[i] }

func (st *AllocState) hoseCap(dc int) float64 {
	return float64(st.dep.Region.Capacity[dc] * st.dep.Region.Lambda)
}

// addAggDiff accumulates one DC's demand diff into the per-call scratch.
// Affected DCs are few (two per changed pair, at most the region's DCs), so
// a linear scan beats a map.
func (st *AllocState) addAggDiff(dc int, diff float64) {
	for i, d := range st.aggDCs {
		if d == dc {
			st.aggDiffs[i] += diff
			return
		}
	}
	st.aggDCs = append(st.aggDCs, dc)
	st.aggDiffs = append(st.aggDiffs, diff)
}

// fallbackFull rebuilds the books from the state's demand plus the delta,
// replacing them in place so the caller's pointer stays valid.
func (st *AllocState) fallbackFull(delta traffic.Delta, reason string) (Undo, DeltaStats, error) {
	m := st.demandMatrix()
	delta.ApplyTo(m)
	fresh, err := st.dep.allocFull(m)
	if err != nil {
		return Undo{}, DeltaStats{}, err
	}
	old := st.books
	st.books = fresh.books
	return Undo{st: st, books: &old}, DeltaStats{FallbackReason: reason, PairsResolved: len(st.dep.Plan.Paths)}, nil
}

// pairCircuits converts one pair's demand (in wavelengths) to circuits:
// full dedicated fiber-pairs plus residual wavelengths (§4.3).
func pairCircuits(demand float64, lambda int) (full, rem int) {
	if demand == 0 {
		return 0, 0
	}
	full = int(demand) / lambda
	rem = int(math.Ceil(demand-1e-9)) - full*lambda
	if rem < 0 {
		rem = 0
	}
	return full, rem
}

// applyPairDelta moves one pair from its currently booked demand to
// newDemand: circuit entries, hose aggregates and duct occupancies are all
// updated, and every duct whose occupancy changed is marked touched for
// the current generation. A pair with no planned path has no books to
// move; apply has rejected it unless it carries nothing before and after.
func (st *AllocState) applyPairDelta(p hose.Pair, newDemand float64) {
	oldDemand := st.demand[p]
	info, ok := st.dep.Plan.Paths[p]
	if oldDemand == newDemand || !ok {
		return
	}
	lambda := st.dep.Region.Lambda
	oldFull, oldRem := pairCircuits(oldDemand, lambda)
	newFull, newRem := pairCircuits(newDemand, lambda)

	if newDemand == 0 {
		delete(st.demand, p)
		delete(st.alloc.Fibers, p)
		delete(st.alloc.Residual, p)
	} else {
		st.demand[p] = newDemand
		st.alloc.Fibers[p] = newFull
		st.alloc.Residual[p] = newRem
	}
	st.perDC[p.A] += newDemand - oldDemand
	st.perDC[p.B] += newDemand - oldDemand
	ride(info, newFull-oldFull, residualUse(newRem)-residualUse(oldRem), st.book)
}

// book is ride's callback on the live books.
func (st *AllocState) book(duct, fibers, residual int) {
	if fibers != 0 {
		st.fibersByDuct[duct] += fibers
	}
	if residual != 0 {
		st.residualByDuct[duct] += residual
	}
	st.markDuct(duct)
}
