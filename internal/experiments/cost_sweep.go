package experiments

import (
	"fmt"
	"strings"
	"sync"

	"iris/internal/core"
	"iris/internal/cost"
	"iris/internal/fibermap"
	"iris/internal/graph"
	"iris/internal/parallel"
	"iris/internal/plan"
	"iris/internal/stats"
)

// SweepConfig is the Fig. 12 scenario grid: fiber maps × region sizes ×
// DC capacities × wavelengths per fiber.
type SweepConfig struct {
	MapSeeds    []int64
	Ns          []int // DCs per region
	Fs          []int // DC capacity in fiber-pairs
	Lambdas     []int // wavelengths per fiber
	MaxFailures int   // failure tolerance for the Iris plan
	// Parallelism bounds how many scenarios are planned concurrently:
	// 0 means GOMAXPROCS, 1 is fully serial. Row order and values are
	// identical at every setting.
	Parallelism int
}

// PaperSweep is the full grid of §6.1: 10 maps × n∈{5,10,15,20} ×
// f∈{8,16,32} × λ∈{40,64} = 240 scenarios with 2-failure tolerance.
func PaperSweep() SweepConfig {
	seeds := make([]int64, 10)
	for i := range seeds {
		seeds[i] = int64(i)
	}
	return SweepConfig{
		MapSeeds:    seeds,
		Ns:          []int{5, 10, 15, 20},
		Fs:          []int{8, 16, 32},
		Lambdas:     []int{40, 64},
		MaxFailures: 2,
	}
}

// QuickSweep is a reduced grid for tests and benchmarks: same structure,
// single-failure tolerance, 24 scenarios.
func QuickSweep() SweepConfig {
	return SweepConfig{
		MapSeeds:    []int64{0, 1, 2},
		Ns:          []int{5, 10},
		Fs:          []int{8, 16},
		Lambdas:     []int{40, 64},
		MaxFailures: 1,
	}
}

// Scenario identifies one sweep point.
type Scenario struct {
	MapSeed int64
	N       int
	F       int
	Lambda  int
}

// SweepRow is the evaluation of one scenario.
type SweepRow struct {
	Scenario

	EPS    cost.Breakdown // EPS on the same failure-tolerant plan
	Iris   cost.Breakdown
	Hybrid cost.Breakdown

	// EPSNoFailures prices EPS on a 0-failure plan (Fig. 12d's baseline).
	EPSNoFailures cost.Breakdown

	// OverheadFrac is the Appendix A metric: the share of the Iris cost
	// attributable to amplifiers and cut-through fiber.
	OverheadFrac float64

	// SLAViolations and PlanViolations report pairs whose surviving paths
	// exceeded the SLA or optical constraints in some failure scenario.
	SLAViolations  int
	PlanViolations int
}

// planNew is the planner entry point behind an indirection so tests can
// count or fail invocations. It must be swapped only before Sweep runs.
var planNew = (*plan.Planner).Plan

// sweepWorkspace is one worker's pair of reusable planner arenas: the
// failure-tolerant plan and its 0-failure baseline are alive at the same
// time while a row is priced, so each needs its own Planner (a Planner's
// result is overwritten by its next Plan call). Consecutive λ rows of the
// same (seed, n, f) region hit the planners' fingerprint and re-solve
// allocation-free.
type sweepWorkspace struct {
	kf, zf *plan.Planner
}

var sweepPool = sync.Pool{New: func() any {
	return &sweepWorkspace{kf: plan.NewPlanner(), zf: plan.NewPlanner()}
}}

// sweepRegion is one entry of the per-seed scenario cache: the generated
// map with its DCs placed, and the planner's base graph whose memoised
// shortest-path trees every (f, λ) scenario of the region shares. All
// fields are read-only once prepared.
type sweepRegion struct {
	m    *fibermap.Map
	base *graph.Graph
}

type regionKey struct {
	seed int64
	n    int
}

// prepareRegions generates each fiber map once per seed — Generate
// depends only on the seed — and places DCs on a clone per region size
// (PlaceDCs mutates the map it is given). Seeds are prepared
// concurrently under the sweep's parallelism bound.
func prepareRegions(cfg SweepConfig) (map[regionKey]*sweepRegion, error) {
	perSeed := make([]map[regionKey]*sweepRegion, len(cfg.MapSeeds))
	err := parallel.ForEach(len(cfg.MapSeeds), cfg.Parallelism, func(i int) error {
		seed := cfg.MapSeeds[i]
		gcfg := fibermap.DefaultGen()
		gcfg.Seed = seed
		base := fibermap.Generate(gcfg)
		out := make(map[regionKey]*sweepRegion, len(cfg.Ns))
		for _, n := range cfg.Ns {
			m := base.Clone()
			pcfg := fibermap.DefaultPlace()
			pcfg.Seed, pcfg.N = seed*31+int64(n), n
			if _, err := fibermap.PlaceDCs(m, pcfg); err != nil {
				return fmt.Errorf("map %d n=%d: %w", seed, n, err)
			}
			out[regionKey{seed, n}] = &sweepRegion{m: m, base: plan.BaseGraph(m)}
		}
		perSeed[i] = out
		return nil
	})
	if err != nil {
		return nil, err
	}
	regions := make(map[regionKey]*sweepRegion, len(cfg.MapSeeds)*len(cfg.Ns))
	for _, out := range perSeed {
		for k, v := range out {
			regions[k] = v
		}
	}
	return regions, nil
}

// Sweep evaluates the grid, fanning scenarios out across
// SweepConfig.Parallelism workers. Scenario construction is deterministic
// in the config and every result lands in its index-addressed row, so two
// runs — at any parallelism — produce identical rows.
func Sweep(cfg SweepConfig) ([]SweepRow, error) {
	prices := cost.Default()

	scens := make([]Scenario, 0, len(cfg.MapSeeds)*len(cfg.Ns)*len(cfg.Fs)*len(cfg.Lambdas))
	for _, seed := range cfg.MapSeeds {
		for _, n := range cfg.Ns {
			for _, f := range cfg.Fs {
				for _, lambda := range cfg.Lambdas {
					scens = append(scens, Scenario{MapSeed: seed, N: n, F: f, Lambda: lambda})
				}
			}
		}
	}

	regions, err := prepareRegions(cfg)
	if err != nil {
		return nil, err
	}

	rows := make([]SweepRow, len(scens))
	err = parallel.ForEach(len(scens), cfg.Parallelism, func(i int) error {
		sc := scens[i]
		reg := regions[regionKey{sc.MapSeed, sc.N}]
		caps := core.UniformRegion(reg.m, sc.F, sc.Lambda).Capacity
		ws := sweepPool.Get().(*sweepWorkspace)
		defer sweepPool.Put(ws)
		in := plan.Input{Map: reg.m, Base: reg.base, Capacity: caps, Lambda: sc.Lambda, MaxFailures: cfg.MaxFailures}
		pl, err := planNew(ws.kf, in)
		if err != nil {
			return fmt.Errorf("map %d n=%d f=%d λ=%d: %w", sc.MapSeed, sc.N, sc.F, sc.Lambda, err)
		}
		// Fig. 12d prices EPS on a 0-failure plan; when the sweep itself
		// runs at 0 failures that plan is identical, so reuse it instead
		// of planning the same input twice.
		pl0 := pl
		if cfg.MaxFailures != 0 {
			in0 := in
			in0.MaxFailures = 0
			pl0, err = planNew(ws.zf, in0)
			if err != nil {
				return fmt.Errorf("map %d n=%d f=%d λ=%d (0 failures): %w", sc.MapSeed, sc.N, sc.F, sc.Lambda, err)
			}
		}
		row := SweepRow{
			Scenario:       sc,
			EPS:            cost.EPS(pl, prices),
			Iris:           cost.Iris(pl, prices),
			Hybrid:         cost.Hybrid(pl, prices),
			EPSNoFailures:  cost.EPS(pl0, prices),
			SLAViolations:  len(pl.SLA),
			PlanViolations: len(pl.Viol),
		}
		row.OverheadFrac = overheadFrac(pl, prices, row.Iris)
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// overheadFrac computes the Appendix A cost share of amplifiers and
// cut-through fiber relative to the total Iris network cost.
func overheadFrac(pl *plan.Plan, prices cost.Catalog, iris cost.Breakdown) float64 {
	ctPairs := 0
	for _, du := range pl.Ducts {
		ctPairs += du.CutThroughPairs
	}
	overhead := float64(pl.TotalAmps())*prices.Amplifier + float64(ctPairs)*prices.FiberPair
	total := iris.Total()
	if total == 0 {
		return 0
	}
	return overhead / total
}

// Ratios extracts the Fig. 12(a) cost-ratio distributions from the rows.
type Ratios struct {
	EPSOverIris      []float64
	EPSOverHybrid    []float64
	EPSOverIrisInNet []float64
	// PortRatioEPS and PortRatioIris are Fig. 12(c)'s in-network-to-DC
	// port ratios.
	PortRatioEPS  []float64
	PortRatioIris []float64
	// EPS0OverIris is Fig. 12(d): zero-failure EPS over 2-failure Iris.
	EPS0OverIris []float64
	// SROverIris recomputes EPS/Iris with SR-priced DCI transceivers
	// (Fig. 12b).
	SROverIris []float64
	// Overheads is the Appendix A distribution.
	Overheads []float64
}

// ExtractRatios computes every distribution the Fig. 12 panels plot.
func ExtractRatios(rows []SweepRow) Ratios {
	var r Ratios
	sr := cost.Default().WithSRPricedDCI()
	for _, row := range rows {
		r.EPSOverIris = append(r.EPSOverIris, row.EPS.Total()/row.Iris.Total())
		r.EPSOverHybrid = append(r.EPSOverHybrid, row.EPS.Total()/row.Hybrid.Total())
		r.EPSOverIrisInNet = append(r.EPSOverIrisInNet, row.EPS.InNetworkCost()/row.Iris.InNetworkCost())
		r.PortRatioEPS = append(r.PortRatioEPS,
			float64(row.EPS.InNetworkPortCount())/float64(row.EPS.DCPortCount()))
		r.PortRatioIris = append(r.PortRatioIris,
			float64(row.Iris.InNetworkPortCount())/float64(row.Iris.DCPortCount()))
		r.EPS0OverIris = append(r.EPS0OverIris, row.EPSNoFailures.Total()/row.Iris.Total())
		r.Overheads = append(r.Overheads, row.OverheadFrac)

		eps := row.EPS
		eps.Prices = sr
		iris := row.Iris
		iris.Prices = sr
		r.SROverIris = append(r.SROverIris, eps.Total()/iris.Total())
	}
	return r
}

// FormatFig12 renders the four panels' headline statistics plus CDF rows.
func FormatFig12(r Ratios) string {
	var b strings.Builder
	cdfLine := func(name string, xs []float64, marks []float64) {
		fmt.Fprintf(&b, "%-24s", name)
		for _, m := range marks {
			fmt.Fprintf(&b, " P(x≤%.0f)=%.2f", m, stats.CDFAt(xs, m))
		}
		fmt.Fprintf(&b, "  median=%.2f\n", stats.Median(xs))
	}
	fmt.Fprintf(&b, "Fig. 12(a) — cost ratios over %d scenarios\n", len(r.EPSOverIris))
	cdfLine("EPS / Iris", r.EPSOverIris, []float64{1, 5, 10, 15})
	cdfLine("EPS / Hybrid", r.EPSOverHybrid, []float64{1, 5, 10, 15})
	cdfLine("EPS / Iris (in-network)", r.EPSOverIrisInNet, []float64{1, 5, 10, 15})
	fmt.Fprintf(&b, "EPS ≥5x Iris in %.0f%% of scenarios (paper: 80%%)\n\n",
		(1-stats.CDFAt(r.EPSOverIris, 5))*100)

	fmt.Fprintf(&b, "Fig. 12(b) — with DCI transceivers priced as short-reach\n")
	cdfLine("EPS / Iris (SR prices)", r.SROverIris, []float64{1, 2, 4})
	fmt.Fprintln(&b)

	fmt.Fprintf(&b, "Fig. 12(c) — in-network ports per DC port\n")
	cdfLine("EPS", r.PortRatioEPS, []float64{1, 5, 10, 20})
	cdfLine("Iris", r.PortRatioIris, []float64{1, 5, 10, 20})
	fmt.Fprintln(&b)

	fmt.Fprintf(&b, "Fig. 12(d) — EPS with no failure guarantees vs. Iris surviving %d cuts\n", 2)
	cdfLine("EPS(0) / Iris(2)", r.EPS0OverIris, []float64{1, 2, 4})
	fmt.Fprintf(&b, "EPS(0) ≥2x Iris(2) in %.0f%% of scenarios (paper: all)\n",
		(1-stats.CDFAt(r.EPS0OverIris, 2))*100)
	return b.String()
}

// FormatAppendixA renders the amplifier/cut-through overhead distribution.
func FormatAppendixA(r Ratios) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Appendix A — amplifier + cut-through cost overhead\n")
	fmt.Fprintf(&b, "mean %.1f%%  worst %.1f%% (paper: 3%% mean, 8%% worst)\n",
		stats.Mean(r.Overheads)*100, stats.Max(r.Overheads)*100)
	return b.String()
}

// ToyResult is the §3.4 worked example.
type ToyResult struct {
	EPS, Iris cost.Breakdown
	Ratio     float64
}

// Toy reproduces the §3.4 cost comparison on the Fig. 10 region.
func Toy() (ToyResult, error) {
	r := core.UniformRegion(fibermap.Toy().Map, 10, 40)
	pl, err := plan.New(plan.Input{Map: r.Map, Capacity: r.Capacity, Lambda: r.Lambda})
	if err != nil {
		return ToyResult{}, err
	}
	prices := cost.Default()
	res := ToyResult{EPS: cost.EPS(pl, prices), Iris: cost.Iris(pl, prices)}
	res.Ratio = res.EPS.Total() / res.Iris.Total()
	return res, nil
}

// Format renders the toy example the way §3.4 walks through it.
func (t ToyResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "§3.4 — toy example (Fig. 10, 4 DCs × 160 Tbps, λ=40)\n")
	fmt.Fprintf(&b, "%-12s %-14s %-12s %-10s %s\n", "design", "transceivers", "fiber-pairs", "OSS ports", "annual cost")
	fmt.Fprintf(&b, "%-12s %-14d %-12d %-10d $%.0f\n", "electrical",
		t.EPS.TransceiverCount(), t.EPS.FiberPairs, t.EPS.OSSPorts, t.EPS.Total())
	fmt.Fprintf(&b, "%-12s %-14d %-12d %-10d $%.0f\n", "iris",
		t.Iris.TransceiverCount(), t.Iris.FiberPairs, t.Iris.OSSPorts, t.Iris.Total())
	fmt.Fprintf(&b, "electrical / iris = %.2fx (paper: 2.7x)\n", t.Ratio)
	return b.String()
}
