package chaos

import (
	"testing"

	"iris/internal/core"
	"iris/internal/fibermap"
)

// planSynthetic generates a seeded synthetic region, places DCs on it and
// plans with the given duct-cut tolerance.
func planSynthetic(t testing.TB, seed int64, dcs, failures int) *core.Deployment {
	t.Helper()
	m, err := fibermap.Spec{Seed: seed, DCs: dcs}.Map()
	if err != nil {
		t.Fatalf("seed %d: place DCs: %v", seed, err)
	}
	dep, err := core.Plan(core.UniformRegion(m, 8, 40), core.Options{MaxFailures: failures})
	if err != nil {
		t.Fatalf("seed %d: plan: %v", seed, err)
	}
	return dep
}

// TestPlanGuaranteeHolds is the subsystem's property test: a plan built
// with MaxFailures=k must audit 100% admissible against every cut set of
// at most k ducts — the planner's Algorithm-1 guarantee, checked by
// independent replay on seeded synthetic regions.
func TestPlanGuaranteeHolds(t *testing.T) {
	cases := []struct {
		seed     int64
		failures int
	}{
		{seed: 1, failures: 1},
		{seed: 2, failures: 1},
		{seed: 3, failures: 2},
	}
	for _, tc := range cases {
		dep := planSynthetic(t, tc.seed, 4, tc.failures)
		a := NewAuditor(dep.Plan)
		scs := EnumerateCuts(dep.Region.Map, tc.failures)
		bad := 0
		for _, r := range a.Run(scs, 0) {
			if !r.Admissible {
				bad++
				if bad <= 3 {
					t.Errorf("seed %d k=%d: scenario %q not admissible: overloads %v, residual %v",
						tc.seed, tc.failures, r.Scenario.Name, r.Overloads, r.ResidualOverloads)
				}
			}
		}
		if bad > 0 {
			t.Errorf("seed %d k=%d: %d/%d scenarios inadmissible", tc.seed, tc.failures, bad, len(scs))
		}
	}
}

// TestZeroTolerancePlanFails is the property test's converse: a plan built
// with no failure tolerance must be non-surviving under at least one
// single duct cut — otherwise the audit would be vacuous.
func TestZeroTolerancePlanFails(t *testing.T) {
	dep := planSynthetic(t, 1, 4, 0)
	a := NewAuditor(dep.Plan)
	failed := 0
	for _, r := range a.Run(EnumerateCuts(dep.Region.Map, 1), 0) {
		if r.Cuts == 1 && !r.Survives {
			failed++
		}
	}
	if failed == 0 {
		t.Fatal("MaxFailures=0 plan survived every single duct cut; the audit cannot distinguish plans")
	}
}
