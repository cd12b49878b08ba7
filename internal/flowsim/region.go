package flowsim

import (
	"fmt"
	"math"
	"math/rand"

	"iris/internal/core"
	"iris/internal/hose"
	"iris/internal/traffic"
)

// RegionExperiment runs the §6.3 reconfiguration study on an actual
// planned deployment instead of the abstract pipe model: pipes are the
// region's DC pairs with capacities from the circuit allocation, the
// traffic matrix evolves under the change process, the controller's
// circuit diffs (core.Diff) define which pipes dim and by how much, and
// the same arrivals run against an EPS baseline without dips.
type RegionExperiment struct {
	Seed int64
	// Dep is the planned region.
	Dep *core.Deployment
	// Util is the network utilization target.
	Util float64
	// GbpsPerWavelength scales circuit capacity into simulated rate. The
	// real 400G per wavelength yields astronomically many flows; the
	// paper's slowdown metric is scale-free, so a smaller rate keeps the
	// simulation tractable without changing the ratio.
	GbpsPerWavelength float64
	// Dist is the flow-size workload.
	Dist traffic.SizeDist
	// ChangeIntervalS and ChangeBound drive the traffic change process
	// (bound ≤ 0 = unbounded).
	ChangeIntervalS float64
	ChangeBound     float64
	// ReconfigS is the fiber-switch time (70 ms measured).
	ReconfigS float64
	// DurationS is the simulated time.
	DurationS float64
}

// DefaultRegionExperiment returns the §6.3 operating point on a planned
// deployment.
func DefaultRegionExperiment(dep *core.Deployment, seed int64, util, intervalS, bound float64, dist traffic.SizeDist) RegionExperiment {
	return RegionExperiment{
		Seed: seed, Dep: dep, Util: util,
		GbpsPerWavelength: 0.25,
		Dist:              dist,
		ChangeIntervalS:   intervalS,
		ChangeBound:       bound,
		ReconfigS:         0.070,
		DurationS:         60,
	}
}

// Run executes the experiment and reports the FCT slowdowns.
func (e RegionExperiment) Run() (SlowdownReport, error) {
	if e.Dep == nil {
		return SlowdownReport{}, fmt.Errorf("flowsim: nil deployment")
	}
	if e.ChangeIntervalS <= 0 || e.GbpsPerWavelength <= 0 {
		return SlowdownReport{}, fmt.Errorf("flowsim: invalid region experiment %+v", e)
	}
	dcs := e.Dep.Region.Map.DCs()
	lambda := e.Dep.Region.Lambda
	caps := e.Dep.Region.HoseCaps()
	rng := rand.New(rand.NewSource(e.Seed))
	m := traffic.HeavyTailed(rng, dcs, caps, e.Util)
	integerize(m)
	alloc, err := e.Dep.Allocate(m)
	if err != nil {
		return SlowdownReport{}, fmt.Errorf("flowsim: initial allocation: %w", err)
	}

	// Pipes: capacity = the pair's allocated circuit (full fibers plus
	// residual wavelengths); offered load = the pair's matrix demand.
	pairs := m.Pairs()
	pipeIdx := make(map[hose.Pair]int, len(pairs))
	var pipes []Pipe
	for _, p := range pairs {
		wl := float64(alloc.FibersFor(p)*lambda + alloc.ResidualFor(p))
		demand := m.Get(p)
		if wl == 0 {
			continue
		}
		// The matrix entry is the circuit's provisioned peak; actual
		// offered load is the utilization fraction of it (§6.3 assumes
		// provisioning covers the traffic before and after each change).
		util := e.Util * demand / wl
		if util >= 0.95 {
			util = 0.95 // stability margin
		}
		pipeIdx[p.Canonical()] = len(pipes)
		pipes = append(pipes, Pipe{
			CapacityGbps: wl * e.GbpsPerWavelength,
			UtilFrac:     util,
		})
	}
	if len(pipes) == 0 {
		return SlowdownReport{}, fmt.Errorf("flowsim: degenerate region matrix")
	}

	// Evolve the matrix; every fiber move dims its pipe for the switch.
	cp := traffic.ChangeProcess{Bound: e.ChangeBound, Caps: caps, Util: e.Util}
	dips := make(map[int][]Dip)
	nDips := 0
	cur := alloc
	for t := e.ChangeIntervalS; t < e.DurationS; t += e.ChangeIntervalS {
		cp.Step(rng, m)
		integerize(m)
		next, err := e.Dep.Allocate(m)
		if err != nil {
			return SlowdownReport{}, fmt.Errorf("flowsim: allocation at t=%.0fs: %w", t, err)
		}
		for _, mv := range core.Diff(cur, next) {
			idx, ok := pipeIdx[mv.Pair]
			if !ok {
				continue // pair had no pipe at t=0 (zero initial demand)
			}
			dips[idx] = append(dips[idx], Dip{
				TimeS: t, DurationS: e.ReconfigS, FracLost: mv.FracAffected,
			})
			nDips++
		}
		cur = next
	}

	warmup := e.DurationS / 10
	iris, err := Run(Config{
		Seed: e.Seed, DurationS: e.DurationS, WarmupS: warmup,
		Dist: e.Dist, Pipes: pipes, Dips: dips,
	})
	if err != nil {
		return SlowdownReport{}, err
	}
	eps, err := Run(Config{
		Seed: e.Seed, DurationS: e.DurationS, WarmupS: warmup,
		Dist: e.Dist, Pipes: pipes,
	})
	if err != nil {
		return SlowdownReport{}, err
	}
	return SlowdownReport{
		All:       ratio99(iris.fcts(false), eps.fcts(false)),
		Short:     ratio99(iris.fcts(true), eps.fcts(true)),
		IrisFlows: len(iris.Flows),
		EPSFlows:  len(eps.Flows),
		Reconfigs: nDips,
	}, nil
}

// integerize snaps every pair demand to whole wavelengths. Rounding (not
// truncating) matters: float noise like 3.9999997 must stay 4, or a
// constant matrix would fabricate a one-wavelength demand change — and a
// phantom reconfiguration — per pair per step.
func integerize(m *traffic.Matrix) {
	for _, p := range m.Pairs() {
		m.Set(p, math.Round(m.Get(p)))
	}
}
