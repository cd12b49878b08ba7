package core

import (
	"fmt"
	"time"

	"iris/internal/traffic"
)

// A Policy decides which allocation each traffic shift commits. irisd's
// converge step and the robust ablation drive the same two: PerShift, and
// the envelope rule of internal/robust.
type Policy interface {
	// Shift answers the step-th shift to demand tm on dep. The answer is
	// a proposal: the caller adopts it once the devices hold it, or rolls
	// its Undo back when they reject it.
	Shift(dep *Deployment, tm *traffic.Matrix, step int) (Outcome, error)
	// Adopt commits the outcome of the last Shift.
	Adopt()
}

// Outcome is a policy's answer to one traffic shift.
type Outcome struct {
	// State is the books the shift leaves and Alloc their snapshot, the
	// allocation the shift commits.
	State *AllocState
	Alloc Allocation
	// Pairs is the diff from the allocation last adopted (empty before
	// the first) to Alloc, in pair order: what the commit compiles, the
	// flow monitor replays and the history record keeps.
	Pairs []PairDelta
	// Changed reports that Alloc differs from the allocation last adopted
	// (always, before the first): Pairs is not empty.
	Changed bool
	// Stats says how the allocator solved the shift; nil when the policy
	// absorbed it without solving.
	Stats *DeltaStats
	// Attr describes the solve for the compile span of the change it
	// drives (empty unless Changed).
	Attr string
	// Undo reverts what the shift did to books it edited in place (the
	// zero Undo when it solved fresh ones).
	Undo Undo
	// Timing is when the shift ran its layers, for the spans of the
	// change it drives.
	Timing Timing
}

// Timing marks when a shift began and when each of its layers ended: the
// traffic diff, the allocator (a delta or a full solve), and the snapshot
// of the books with its pair diff. A zero mark is a layer the shift did
// not run.
type Timing struct {
	Start, Diffed, Solved, Snapshotted time.Time
}

// PerShift is the §5 controller's policy: every shift is allocated. The
// first shift, or the first after a deployment swap, is a full solve;
// every later one applies the DiffMatrices delta to the adopted books
// through AllocateDelta. The zero value is ready to use.
type PerShift struct {
	adopted, next shiftBooks
}

// shiftBooks are allocator books, the demand they satisfy and their
// snapshot.
type shiftBooks struct {
	st    *AllocState
	tm    *traffic.Matrix
	alloc Allocation
}

// Shift allocates tm, incrementally when the adopted books allow.
func (p *PerShift) Shift(dep *Deployment, tm *traffic.Matrix, _ int) (Outcome, error) {
	b := p.adopted
	at := Timing{Start: time.Now()}
	var out Outcome
	if b.st != nil && b.st.dep == dep {
		delta := traffic.DiffMatrices(b.tm, tm)
		at.Diffed = time.Now()
		undo, stats, err := dep.AllocateDelta(b.st, delta)
		if err != nil {
			// An infeasible delta leaves the books untouched.
			return Outcome{}, fmt.Errorf("allocate: %w", err)
		}
		out = Outcome{State: b.st, Stats: &stats, Undo: undo}
	} else {
		st, err := dep.AllocateState(tm)
		if err != nil {
			return Outcome{}, fmt.Errorf("allocate: %w", err)
		}
		out = Outcome{State: st, Stats: &DeltaStats{FallbackReason: "full solve", PairsResolved: len(dep.Plan.Paths)}}
	}
	at.Solved = time.Now()
	// Snapshot decouples the proposed allocation from the books, which
	// the next delta edits in place.
	out.Alloc = out.State.Snapshot()
	if out.Stats.Incremental {
		out.Pairs = out.State.deltaPairs(out.Undo.prev)
	} else {
		out.Pairs = DiffAlloc(b.alloc, out.Alloc)
	}
	at.Snapshotted = time.Now()
	out.Timing = at
	out.Changed = b.st == nil || len(out.Pairs) > 0
	if s := out.Stats; out.Changed {
		out.Attr = fmt.Sprintf("incremental=%v pairs_resolved=%d pairs_revalidated=%d ducts_touched=%d",
			s.Incremental, s.PairsResolved, s.PairsRevalidated, s.DuctsTouched)
	}
	p.next = shiftBooks{out.State, tm, out.Alloc}
	return out, nil
}

// Adopt makes the last shift's books the ones the next delta edits.
func (p *PerShift) Adopt() { p.adopted = p.next }

// deltaPairs is the pair diff of the incremental AllocateDelta whose Undo
// holds prev: its changed pairs, in pair order, from the circuits of
// their old demand to those on the books now. Every other pair kept its
// circuits, so it is DiffAlloc of the two snapshots at O(changed).
func (st *AllocState) deltaPairs(prev []pairDemand) []PairDelta {
	var out []PairDelta
	for _, pd := range prev {
		p := pd.pair
		oldFull, oldRem := pairCircuits(pd.demand, st.dep.Region.Lambda)
		d := PairDelta{A: p.A, B: p.B,
			OldFibers: oldFull, NewFibers: st.alloc.Fibers[p],
			OldResidual: oldRem, NewResidual: st.alloc.Residual[p],
		}
		if d.OldFibers != d.NewFibers || d.OldResidual != d.NewResidual {
			out = append(out, d)
		}
	}
	return out
}
