package plan

import (
	"testing"

	"iris/internal/fibermap"
)

// planRegion is a helper for the monotonicity properties.
func planRegion(t *testing.T, seed int64, n, f, maxFailures int) *Plan {
	t.Helper()
	m, err := fibermap.Spec{Seed: seed, DCs: n}.Map()
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	dcs := m.DCs()
	caps := make(map[int]int)
	for _, dc := range dcs {
		caps[dc] = f
	}
	pl, err := New(Input{Map: m, Capacity: caps, Lambda: 40, MaxFailures: maxFailures})
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	return pl
}

// TestMonotoneInCapacity: doubling every DC's capacity can only increase
// per-duct base provisioning, and scales it at most linearly.
func TestMonotoneInCapacity(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		small := planRegion(t, seed, 6, 8, 0)
		big := planRegion(t, seed, 6, 16, 0)
		for id, duSmall := range small.Ducts {
			duBig := big.Ducts[id]
			if duBig == nil {
				t.Fatalf("seed %d: duct %d dropped at higher capacity", seed, id)
			}
			if duBig.BasePairs < duSmall.BasePairs {
				t.Errorf("seed %d duct %d: base shrank %d -> %d with more capacity",
					seed, id, duSmall.BasePairs, duBig.BasePairs)
			}
			if duBig.BasePairs > 2*duSmall.BasePairs {
				t.Errorf("seed %d duct %d: base grew superlinearly %d -> %d",
					seed, id, duSmall.BasePairs, duBig.BasePairs)
			}
			// Residual fiber counts pairs, not capacity: unchanged.
			if duBig.ResidualPairs != duSmall.ResidualPairs {
				t.Errorf("seed %d duct %d: residual changed with capacity %d -> %d",
					seed, id, duSmall.ResidualPairs, duBig.ResidualPairs)
			}
		}
	}
}

// TestMonotoneInFailures: a higher cut tolerance can only add fiber, never
// remove it, and per-duct provisioning is monotone.
func TestMonotoneInFailures(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		frag := planRegion(t, seed, 5, 8, 0)
		tol1 := planRegion(t, seed, 5, 8, 1)
		tol2 := planRegion(t, seed, 5, 8, 2)
		if tol1.TotalFiberPairs() < frag.TotalFiberPairs() {
			t.Errorf("seed %d: 1-failure plan leases less fiber than fragile plan", seed)
		}
		if tol2.TotalFiberPairs() < tol1.TotalFiberPairs() {
			t.Errorf("seed %d: 2-failure plan leases less fiber than 1-failure plan", seed)
		}
		for id, du0 := range frag.Ducts {
			du1 := tol1.Ducts[id]
			if du1 == nil || du1.BasePairs < du0.BasePairs {
				t.Errorf("seed %d duct %d: failure tolerance reduced base capacity", seed, id)
			}
		}
		if tol2.NScena <= tol1.NScena {
			t.Errorf("seed %d: scenario counts not increasing (%d, %d)",
				seed, tol1.NScena, tol2.NScena)
		}
	}
}

// TestPrunedEnumerationMatchesExhaustive: on the toy (small enough to
// enumerate exhaustively by hand-counting), the pruned enumeration visits
// exactly the subsets of used ducts and produces identical provisioning to
// a plan over the same scenarios.
func TestPrunedEnumerationMatchesExhaustive(t *testing.T) {
	// The toy uses all 5 ducts in every scenario where they survive, so
	// pruning must not remove any subset: 1 + 5 + C(5,2) = 16.
	in, _ := toyInput(2)
	pl, err := New(in)
	if err != nil {
		t.Fatal(err)
	}
	if pl.NScena != 16 {
		t.Errorf("NScena = %d, want 16 (no pruning opportunity on the toy)", pl.NScena)
	}
}

// TestPathsDeterministicAcrossRuns guards the planner's determinism, which
// the fabric's port maps and the experiments' reproducibility rely on.
func TestPathsDeterministicAcrossRuns(t *testing.T) {
	a := planRegion(t, 1, 6, 8, 1)
	b := planRegion(t, 1, 6, 8, 1)
	if len(a.Paths) != len(b.Paths) {
		t.Fatal("path counts differ")
	}
	for pair, ia := range a.Paths {
		ib := b.Paths[pair]
		if ib == nil || ia.TotalKM != ib.TotalKM || len(ia.Ducts) != len(ib.Ducts) {
			t.Fatalf("pair %v differs across runs", pair)
		}
		for i := range ia.Ducts {
			if ia.Ducts[i] != ib.Ducts[i] {
				t.Fatalf("pair %v duct order differs", pair)
			}
		}
	}
	if a.TotalFiberPairs() != b.TotalFiberPairs() || a.TotalAmps() != b.TotalAmps() {
		t.Error("provisioning differs across runs")
	}
}
