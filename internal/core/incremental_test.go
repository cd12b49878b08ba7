package core

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"iris/internal/fibermap"
	"iris/internal/hose"
	"iris/internal/traffic"
)

// genDeployment plans a synthetic n-DC region for incremental tests.
func genDeployment(t testing.TB, seed int64, n int) *Deployment {
	t.Helper()
	m, err := fibermap.Spec{Seed: seed, DCs: n}.Map()
	if err != nil {
		t.Fatal(err)
	}
	dep, err := Plan(UniformRegion(m, 8, 40), Options{MaxFailures: 1})
	if err != nil {
		t.Fatal(err)
	}
	return dep
}

// booksMatch compares the state's occupancy books against a from-scratch
// solve of the same matrix, treating absent entries as zero (the
// incremental path may retain explicit zeros).
func booksMatch(st, fresh *AllocState) error {
	if !st.alloc.Equal(fresh.alloc) {
		return fmt.Errorf("allocation differs: %+v vs %+v", st.alloc, fresh.alloc)
	}
	if err := intMapZeroEqual(st.fibersByDuct, fresh.fibersByDuct); err != nil {
		return fmt.Errorf("fibersByDuct: %w", err)
	}
	if err := intMapZeroEqual(st.residualByDuct, fresh.residualByDuct); err != nil {
		return fmt.Errorf("residualByDuct: %w", err)
	}
	for dc, v := range fresh.perDC {
		if d := st.perDC[dc] - v; d > 1e-6 || d < -1e-6 {
			return fmt.Errorf("perDC[%d] = %v, want %v", dc, st.perDC[dc], v)
		}
	}
	return nil
}

func intMapZeroEqual(got, want map[int]int) error {
	for k, v := range got {
		if want[k] != v {
			return fmt.Errorf("key %d: got %d, want %d", k, v, want[k])
		}
	}
	for k, v := range want {
		if got[k] != v {
			return fmt.Errorf("key %d: got %d, want %d", k, got[k], v)
		}
	}
	return nil
}

func TestAllocateStateMatchesAllocate(t *testing.T) {
	dep := genDeployment(t, 1, 8)
	dcs := dep.Region.Map.DCs()
	m := traffic.NewMatrix(dcs)
	for i, p := range m.Pairs() {
		m.Set(p, float64(5+(7*i)%40))
	}
	st, err := dep.AllocateState(m)
	if err != nil {
		t.Fatal(err)
	}
	want, err := dep.Allocate(m)
	if err != nil {
		t.Fatal(err)
	}
	if !st.alloc.Equal(want) {
		t.Errorf("AllocateState allocation differs from Allocate")
	}
	snap := st.Snapshot()
	if !snap.Equal(want) {
		t.Errorf("Snapshot differs from Allocate")
	}
}

// TestAllocateDeltaStream is the seeded stream property test: 100 random
// sparse deltas per seed, applied through both AllocateDelta and a
// from-scratch Allocate, asserting identical allocations and occupancy
// books at every step — including steps where the delta is infeasible
// (both paths must reject, and the incremental state must stay intact).
func TestAllocateDeltaStream(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			dep := genDeployment(t, seed, 8)
			dcs := dep.Region.Map.DCs()
			rng := rand.New(rand.NewSource(seed * 101))

			m := traffic.NewMatrix(dcs)
			pairs := m.Pairs()
			for _, p := range pairs {
				m.Set(p, float64(rng.Intn(60)))
			}
			m.ClampToHose(dep.Region.HoseCaps())
			for _, p := range pairs {
				m.Set(p, float64(int(m.Get(p))))
			}

			st, err := dep.AllocateState(m)
			if err != nil {
				t.Fatal(err)
			}

			incremental, fallbacks, rejected := 0, 0, 0
			for step := 0; step < 100; step++ {
				next := m.Clone()
				switch {
				case step%10 == 9:
					// Every tenth step shifts most of the region at once to
					// exercise the fallback path.
					for _, p := range pairs {
						if rng.Intn(4) > 0 {
							next.Set(p, float64(rng.Intn(25)))
						}
					}
				case step%7 == 3:
					// Occasionally aim past the hose so the rejection path
					// runs too.
					for n := 1 + rng.Intn(3); n > 0; n-- {
						next.Set(pairs[rng.Intn(len(pairs))], float64(rng.Intn(180)))
					}
				default:
					for n := 1 + rng.Intn(4); n > 0; n-- {
						next.Set(pairs[rng.Intn(len(pairs))], float64(rng.Intn(46)))
					}
				}
				delta := traffic.DiffMatrices(m, next)

				wantAlloc, wantErr := dep.Allocate(next)

				undo, stats, err := dep.AllocateDelta(st, delta)
				if wantErr != nil {
					rejected++
					if err == nil {
						t.Fatalf("step %d: full Allocate rejected (%v) but AllocateDelta accepted", step, wantErr)
					}
					// The state must still book the previous matrix.
					prev, perr := dep.allocFull(m)
					if perr != nil {
						t.Fatal(perr)
					}
					if berr := booksMatch(st, prev); berr != nil {
						t.Fatalf("step %d: state corrupted by rejected delta: %v", step, berr)
					}
					continue
				}
				if err != nil {
					t.Fatalf("step %d: AllocateDelta: %v (full Allocate accepted)", step, err)
				}
				if stats.Incremental {
					incremental++
				} else {
					fallbacks++
					if stats.FallbackReason == "" {
						t.Fatalf("step %d: fallback without a reason", step)
					}
				}
				if !st.alloc.Equal(wantAlloc) {
					t.Fatalf("step %d: incremental allocation differs from full (stats %+v)", step, stats)
				}
				fresh, ferr := dep.allocFull(next)
				if ferr != nil {
					t.Fatal(ferr)
				}
				if berr := booksMatch(st, fresh); berr != nil {
					t.Fatalf("step %d: occupancy books diverged: %v", step, berr)
				}
				_ = undo // committed: no rollback
				m = next
			}
			t.Logf("seed %d: %d incremental, %d fallback, %d rejected", seed, incremental, fallbacks, rejected)
			if incremental == 0 || fallbacks == 0 {
				t.Errorf("stream did not exercise both paths: %d incremental, %d fallback", incremental, fallbacks)
			}
		})
	}
}

func TestAllocateDeltaRollback(t *testing.T) {
	dep := genDeployment(t, 2, 6)
	dcs := dep.Region.Map.DCs()
	m := traffic.NewMatrix(dcs)
	for i, p := range m.Pairs() {
		m.Set(p, float64(10+(11*i)%40))
	}
	st, err := dep.AllocateState(m)
	if err != nil {
		t.Fatal(err)
	}
	before := st.Snapshot()

	pairs := m.Pairs()
	delta := traffic.Delta{Changes: map[hose.Pair]float64{pairs[0]: m.Get(pairs[0]) + 90, pairs[3]: 0}}
	undo, stats, err := dep.AllocateDelta(st, delta)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Incremental || stats.PairsResolved != 2 {
		t.Errorf("stats = %+v, want incremental with 2 pairs resolved", stats)
	}
	if st.alloc.Equal(before) {
		t.Fatal("delta did not change the allocation")
	}
	undo.Rollback()
	if !st.alloc.Equal(before) {
		t.Error("rollback did not restore the allocation")
	}
	fresh, err := dep.allocFull(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := booksMatch(st, fresh); err != nil {
		t.Errorf("rollback left inconsistent books: %v", err)
	}
	undo.Rollback() // second rollback is a no-op
	if !st.alloc.Equal(before) {
		t.Error("double rollback corrupted the state")
	}

	// Fallback rollback: a region-wide delta swaps books wholesale.
	big := traffic.Delta{Changes: map[hose.Pair]float64{}}
	for _, p := range pairs {
		big.Changes[p] = 15
	}
	undo, stats, err = dep.AllocateDelta(st, big)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Incremental {
		t.Errorf("region-wide delta stayed incremental: %+v", stats)
	}
	undo.Rollback()
	if !st.alloc.Equal(before) {
		t.Error("fallback rollback did not restore the allocation")
	}
}

func TestAllocateDeltaRejectsHoseViolation(t *testing.T) {
	dep := genDeployment(t, 3, 5)
	dcs := dep.Region.Map.DCs()
	m := traffic.NewMatrix(dcs)
	st, err := dep.AllocateState(m)
	if err != nil {
		t.Fatal(err)
	}
	// One DC's capacity is 8×40 = 320 wavelengths; two 300-wavelength
	// pairs from the same DC exceed it.
	delta := traffic.Delta{Changes: map[hose.Pair]float64{
		hose.Pair{A: dcs[0], B: dcs[1]}.Canonical(): 300,
		hose.Pair{A: dcs[0], B: dcs[2]}.Canonical(): 300,
	}}
	if _, _, err := dep.AllocateDelta(st, delta); err == nil ||
		!strings.Contains(err.Error(), "exceeds capacity") {
		t.Errorf("err = %v, want hose violation", err)
	}
	if len(st.alloc.Fibers) != 0 {
		t.Error("rejected delta mutated the state")
	}
}

func TestAllocateDeltaRejectsUnplannedPair(t *testing.T) {
	dep := genDeployment(t, 3, 5)
	dcs := dep.Region.Map.DCs()
	st, err := dep.AllocateState(traffic.NewMatrix(dcs))
	if err != nil {
		t.Fatal(err)
	}
	p := hose.Pair{A: dcs[0], B: dcs[1]}.Canonical()
	delete(dep.Plan.Paths, p)
	delta := traffic.Delta{Changes: map[hose.Pair]float64{p: 10}}
	if _, _, err := dep.AllocateDelta(st, delta); err == nil ||
		!strings.Contains(err.Error(), "no planned path") {
		t.Errorf("err = %v, want unplanned-pair rejection", err)
	}
}

func TestAllocateDeltaNoOp(t *testing.T) {
	dep := genDeployment(t, 2, 5)
	dcs := dep.Region.Map.DCs()
	m := traffic.NewMatrix(dcs)
	p := hose.Pair{A: dcs[0], B: dcs[1]}
	m.Set(p, 50)
	st, err := dep.AllocateState(m)
	if err != nil {
		t.Fatal(err)
	}
	delta := traffic.Delta{Changes: map[hose.Pair]float64{p.Canonical(): 50}} // same demand: normalizes away
	_, stats, err := dep.AllocateDelta(st, delta)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Incremental || stats.PairsResolved != 0 || stats.DuctsTouched != 0 {
		t.Errorf("stats = %+v, want a recognized no-op", stats)
	}
	if _, stats, err = dep.AllocateDelta(st, traffic.Delta{}); err != nil || stats.PairsResolved != 0 {
		t.Errorf("empty delta: stats %+v, err %v", stats, err)
	}
}

func TestAllocateDeltaForeignState(t *testing.T) {
	depA := genDeployment(t, 2, 5)
	depB := genDeployment(t, 3, 5)
	st, err := depA.AllocateState(traffic.NewMatrix(depA.Region.Map.DCs()))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := depB.AllocateDelta(st, traffic.Delta{}); err == nil {
		t.Error("state from another deployment was accepted")
	}
	if _, _, err := depB.AllocateDelta(nil, traffic.Delta{}); err == nil {
		t.Error("nil state was accepted")
	}
}

func TestAllocateDeltaRevalidatesNeighbours(t *testing.T) {
	dep := genDeployment(t, 1, 8)
	dcs := dep.Region.Map.DCs()
	m := traffic.NewMatrix(dcs)
	for _, p := range m.Pairs() {
		m.Set(p, 30) // everyone holds circuits, so paths overlap on trunks
	}
	st, err := dep.AllocateState(m)
	if err != nil {
		t.Fatal(err)
	}
	delta := traffic.Delta{Changes: map[hose.Pair]float64{m.Pairs()[0]: 130}}
	_, stats, err := dep.AllocateDelta(st, delta)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Incremental || stats.DuctsTouched == 0 {
		t.Fatalf("stats = %+v, want touched ducts", stats)
	}
	if stats.PairsRevalidated == 0 {
		t.Errorf("stats = %+v, want duct-sharing neighbours revalidated", stats)
	}

	// The count is exact: over random deltas of one to three pairs on
	// several regions, it is the number of pairs outside the delta whose
	// planned path rides a duct the delta touched.
	checked := 0
	for seed := int64(1); seed <= 4; seed++ {
		dep := genDeployment(t, seed, 8)
		m := traffic.NewMatrix(dep.Region.Map.DCs())
		pairs := m.Pairs()
		for _, p := range pairs {
			m.Set(p, 30)
		}
		st, err := dep.AllocateState(m)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		for range 20 {
			delta := traffic.Delta{Changes: map[hose.Pair]float64{}}
			for range 1 + rng.Intn(3) {
				p := pairs[rng.Intn(len(pairs))]
				v := float64(rng.Intn(61))
				if v == st.demand[p] {
					v++
				}
				delta.Changes[p] = v
			}
			_, stats, err := dep.AllocateDelta(st, delta)
			if err != nil {
				continue // over a hose or duct: the state is unchanged
			}
			touched := make(map[int]bool, len(st.touched))
			for _, duct := range st.touched {
				touched[duct] = true
			}
			want := 0
			for p, info := range dep.Plan.Paths {
				if _, inDelta := delta.Changes[p]; !inDelta && slices.ContainsFunc(info.Ducts, func(d int) bool { return touched[d] }) {
					want++
				}
			}
			if !stats.Incremental || stats.PairsRevalidated != want {
				t.Fatalf("seed %d, %v: stats = %+v, want %d pairs revalidated", seed, delta, stats, want)
			}
			checked++
		}
	}
	if checked < 40 {
		t.Errorf("only %d of 80 deltas were admitted; the cases do not exercise the count", checked)
	}
}
