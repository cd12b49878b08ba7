package core

import (
	"iris/internal/cost"
	"iris/internal/plan"
)

// Solver is a reusable planning engine: it owns an arena-backed planner
// workspace (plan.Planner), a pricing workspace (cost.Calc) and a
// Deployment it refills on every Solve, so a loop that re-plans the same
// region — a sweep over failure tolerances, a what-if study — pays the
// allocation cost of planning once and then solves allocation-free. A
// live region does not need one: it plans once at bring-up (core.Plan)
// and every tick after that allocates against that Deployment.
//
// The Deployment returned by Solve aliases the Solver's workspace and is
// overwritten by the next Solve call; callers that need a result to
// outlive the next solve must use the package-level Plan, which wraps a
// throwaway Solver. A Solver is not safe for concurrent use — use one
// per goroutine.
type Solver struct {
	opts    Options
	planner *plan.Planner
	calc    cost.Calc
	dep     Deployment
}

// NewSolver returns a Solver with the given options. A zero Prices
// catalog selects the paper's §3.3 defaults, matching Plan.
func NewSolver(opts Options) *Solver {
	if opts.Prices == (cost.Catalog{}) {
		opts.Prices = cost.Default()
	}
	return &Solver{opts: opts, planner: plan.NewPlanner()}
}

// Solve plans a region end to end into the Solver's workspace. Repeated
// calls on an unchanged region (same Map, Capacity values, MaxFailures)
// reuse every internal slab and perform no steady-state heap allocation;
// a changed region transparently rebuilds the workspace. See Solver for
// the result's lifetime.
func (s *Solver) Solve(region Region) (*Deployment, error) {
	pl, err := s.planner.Plan(plan.Input{
		Map:         region.Map,
		Capacity:    region.Capacity,
		Lambda:      region.Lambda,
		MaxFailures: s.opts.MaxFailures,
		Span:        s.opts.Span,
	})
	if err != nil {
		return nil, err
	}
	s.dep.Region = region
	s.dep.Plan = pl
	s.dep.Iris = s.calc.Iris(pl, s.opts.Prices)
	s.dep.EPS = s.calc.EPS(pl, s.opts.Prices)
	s.dep.Hybrid = s.calc.Hybrid(pl, s.opts.Prices)
	return &s.dep, nil
}
