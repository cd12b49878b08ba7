package flowsim

import (
	"fmt"
	"math"
	"math/rand"

	"iris/internal/stats"
	"iris/internal/traffic"
)

// Experiment reproduces the §6.3 simulation campaign for one operating
// point: a region of DC pairs with heavy-tailed traffic, a traffic-change
// process stepping every ChangeIntervalS, and the resulting circuit
// reconfigurations dimming pipes for ReconfigS. It runs the same arrivals
// with and without the dips (Iris vs. the EPS baseline) and reports FCT
// slowdowns.
type Experiment struct {
	Seed int64
	// NDCs is the region size; pipes are all DC pairs.
	NDCs int
	// PipeGbps is the provisioned capacity per DC-pair circuit.
	PipeGbps float64
	// Util is the network utilization target: the hottest pipe runs at
	// this fraction of its capacity, others lower per the heavy tail.
	Util float64
	// Dist is the flow-size workload.
	Dist traffic.SizeDist
	// ChangeIntervalS is the time between traffic-matrix changes (and
	// hence reconfigurations); the paper sweeps 1–30 s.
	ChangeIntervalS float64
	// ChangeBound is the per-step bound on pair demand change (0.5 = 50%);
	// ≤ 0 means unbounded changes (cold pairs becoming hot).
	ChangeBound float64
	// ReconfigS is the fiber-switch outage; the measured value is 70 ms.
	ReconfigS float64
	// FibersPerPipe is the circuit granularity: demand changes that do not
	// move a whole fiber cause no reconfiguration.
	FibersPerPipe int
	// DurationS is the simulated time.
	DurationS float64
}

// DefaultExperiment returns the paper's operating point for the given
// sweep parameters.
func DefaultExperiment(seed int64, util float64, intervalS, bound float64, dist traffic.SizeDist) Experiment {
	return Experiment{
		Seed:            seed,
		NDCs:            8,
		PipeGbps:        10,
		Util:            util,
		Dist:            dist,
		ChangeIntervalS: intervalS,
		ChangeBound:     bound,
		ReconfigS:       0.070,
		FibersPerPipe:   8,
		DurationS:       60,
	}
}

// SlowdownReport compares Iris to the EPS baseline at one operating point.
type SlowdownReport struct {
	// All is the ratio of 99th-percentile FCT, Iris over EPS, across all
	// flows; Short restricts to flows under traffic.ShortFlowBytes.
	All, Short float64
	// IrisFlows and EPSFlows count completed flows in each run.
	IrisFlows, EPSFlows int
	// Reconfigs is the number of pipe-level reconfiguration dips applied.
	Reconfigs int
}

// Run executes the experiment.
func (e Experiment) Run() (SlowdownReport, error) {
	if e.NDCs < 2 {
		return SlowdownReport{}, fmt.Errorf("flowsim: need at least 2 DCs, have %d", e.NDCs)
	}
	if e.ChangeIntervalS <= 0 {
		return SlowdownReport{}, fmt.Errorf("flowsim: change interval must be positive")
	}
	if e.FibersPerPipe <= 0 {
		return SlowdownReport{}, fmt.Errorf("flowsim: fibers per pipe must be positive")
	}

	// Heavy-tailed pair demands over a synthetic region.
	dcs := make([]int, e.NDCs)
	caps := make(map[int]float64, e.NDCs)
	for i := range dcs {
		dcs[i] = i
		caps[i] = 100
	}
	rng := rand.New(rand.NewSource(e.Seed))
	m := traffic.HeavyTailed(rng, dcs, caps, e.Util)
	pairs := m.Pairs()

	// Pipe utilizations proportional to pair demand, hottest at e.Util.
	maxDemand := 0.0
	for _, p := range pairs {
		if d := m.Get(p); d > maxDemand {
			maxDemand = d
		}
	}
	if maxDemand == 0 {
		return SlowdownReport{}, fmt.Errorf("flowsim: degenerate traffic matrix")
	}
	pipes := make([]Pipe, len(pairs))
	for i, p := range pairs {
		pipes[i] = Pipe{
			CapacityGbps: e.PipeGbps,
			UtilFrac:     e.Util * m.Get(p) / maxDemand,
		}
	}

	// Evolve the matrix and derive reconfiguration dips: a pipe dips when
	// its integer fiber allocation changes, losing the moved fraction of
	// its circuit for the switch time.
	dips := make(map[int][]Dip)
	nDips := 0
	cp := traffic.ChangeProcess{Bound: e.ChangeBound, Caps: caps, Util: e.Util}
	alloc := make([]int, len(pairs))
	fibersOf := func(mm *traffic.Matrix, i int) int {
		f := int(math.Ceil(mm.Get(pairs[i]) / maxDemand * float64(e.FibersPerPipe)))
		if f < 1 {
			f = 1
		}
		if f > e.FibersPerPipe {
			f = e.FibersPerPipe
		}
		return f
	}
	for i := range pairs {
		alloc[i] = fibersOf(m, i)
	}
	for t := e.ChangeIntervalS; t < e.DurationS; t += e.ChangeIntervalS {
		cp.Step(rng, m)
		for i := range pairs {
			nf := fibersOf(m, i)
			if nf == alloc[i] {
				continue
			}
			// Only shrinking circuits drain live traffic; fibers joining a
			// growing circuit were idle (§5.2's drain discipline).
			if nf < alloc[i] {
				frac := float64(alloc[i]-nf) / float64(alloc[i])
				if frac > 1 {
					frac = 1
				}
				dips[i] = append(dips[i], Dip{TimeS: t, DurationS: e.ReconfigS, FracLost: frac})
				nDips++
			}
			alloc[i] = nf
		}
	}

	warmup := e.DurationS / 10
	iris, err := run(config{
		Seed: e.Seed, DurationS: e.DurationS, WarmupS: warmup,
		Dist: e.Dist, Pipes: pipes, Dips: dips,
	})
	if err != nil {
		return SlowdownReport{}, err
	}
	eps, err := run(config{
		Seed: e.Seed, DurationS: e.DurationS, WarmupS: warmup,
		Dist: e.Dist, Pipes: pipes,
	})
	if err != nil {
		return SlowdownReport{}, err
	}

	rep := SlowdownReport{
		IrisFlows: len(iris.Flows),
		EPSFlows:  len(eps.Flows),
		Reconfigs: nDips,
	}
	rep.All = ratio99(iris.fcts(false), eps.fcts(false))
	rep.Short = ratio99(iris.fcts(true), eps.fcts(true))
	return rep, nil
}

func ratio99(iris, eps []float64) float64 {
	den := stats.Percentile(eps, 99)
	if den == 0 || math.IsNaN(den) {
		return math.NaN()
	}
	return stats.Percentile(iris, 99) / den
}
