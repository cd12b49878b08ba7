// Package core is the public face of the Iris library: it bundles the
// paper's planning pipeline (§4), the cost models (§3.3, §6.1), and the
// fiber-granularity circuit allocation the controller executes (§4.3,
// §5.2) behind a small API.
//
// The typical flow is:
//
//	dep, err := core.Plan(region, core.DefaultOptions())
//	alloc, err := dep.Allocate(trafficMatrix)
//	moves := core.Diff(oldAlloc, newAlloc)   // what a reconfiguration touches
//
// Control loops that apply many successive demand shifts use the
// incremental path instead of re-solving per shift:
//
//	st, err := dep.AllocateState(trafficMatrix)
//	undo, stats, err := dep.AllocateDelta(st, delta)   // re-solves only changed pairs
//
// A Policy decides which allocation each shift commits: PerShift runs
// that path, robust.Policy the envelope rule.
package core

import (
	"iris/internal/cost"
	"iris/internal/fibermap"
	"iris/internal/hose"
	"iris/internal/plan"
	"iris/internal/trace"
	"iris/internal/traffic"
)

// Region is the planning input: a fiber map with placed DCs, each DC's
// capacity in fiber-pairs, and the wavelength count per fiber.
type Region struct {
	Map      *fibermap.Map
	Capacity map[int]int
	Lambda   int
}

// Options tune planning.
type Options struct {
	// MaxFailures is the duct-cut tolerance (OC4); the paper's
	// operational default is 2.
	MaxFailures int
	// Prices overrides the component catalog; zero value means the
	// paper's §3.3 prices.
	Prices cost.Catalog
	// Span, when non-nil, receives the planner's per-stage child spans
	// (see plan.Input.Span).
	Span *trace.Span
}

// Deployment is a fully planned region: topology, capacity, optical
// equipment, and the cost of implementing it under each switching
// architecture.
type Deployment struct {
	Region Region
	Plan   *plan.Plan
	Iris   cost.Breakdown
	EPS    cost.Breakdown
	Hybrid cost.Breakdown
}

// DefaultOptions returns the paper's operational planning defaults: the
// §4 duct-cut tolerance of 2 and the §3.3 price catalog (selected by the
// zero Prices). Mutate the returned struct to deviate, matching the
// Default* construction idiom used module-wide.
func DefaultOptions() Options {
	return Options{MaxFailures: 2}
}

// Plan plans a region end to end. It wraps a throwaway Solver, so the
// returned Deployment is independent of any workspace and stays valid
// forever; loops that re-plan the same region should hold a Solver
// instead and amortize the workspace across calls.
func Plan(region Region, opts Options) (*Deployment, error) {
	return NewSolver(opts).Solve(region)
}

// Allocation is a fiber-granularity circuit assignment for one traffic
// matrix: per DC pair, the number of dedicated full fibers, and the
// wavelengths riding the pair's residual fiber for the fractional part
// (§4.3: fractional demands never cost extra transceivers, only the
// pre-provisioned residual fiber).
type Allocation struct {
	// Fibers is the number of full fiber-pairs dedicated to each DC pair.
	Fibers map[hose.Pair]int
	// Residual is the wavelength count carried on each pair's residual
	// fiber (0 ≤ Residual < λ).
	Residual map[hose.Pair]int
}

// FibersFor returns the full-fiber count for a pair.
func (a Allocation) FibersFor(p hose.Pair) int { return a.Fibers[p.Canonical()] }

// ResidualFor returns the residual wavelengths for a pair.
func (a Allocation) ResidualFor(p hose.Pair) int { return a.Residual[p.Canonical()] }

// Equal reports whether two allocations assign the same fibers and
// residual wavelengths to every pair, treating absent entries as zero.
func (a Allocation) Equal(b Allocation) bool {
	return intMapsEqual(a.Fibers, b.Fibers) && intMapsEqual(a.Residual, b.Residual)
}

func intMapsEqual(x, y map[hose.Pair]int) bool {
	for p, v := range x {
		if y[p] != v {
			return false
		}
	}
	for p, v := range y {
		if x[p] != v {
			return false
		}
	}
	return true
}

// Allocate converts a demand matrix (in wavelengths per DC pair) into a
// circuit assignment, validating that demands respect the hose model and
// that the provisioned duct capacities can carry the assignment. For a
// control loop that applies many successive shifts, AllocateState +
// AllocateDelta solve the same problem incrementally.
func (d *Deployment) Allocate(m *traffic.Matrix) (Allocation, error) {
	st, err := d.allocFull(m)
	if err != nil {
		return Allocation{}, err
	}
	return st.alloc, nil
}
