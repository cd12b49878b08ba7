package iris

// This file regenerates the paper's evaluation as Go benchmarks: one
// benchmark per table/figure (see DESIGN.md's per-experiment index), plus
// micro-benchmarks for the planner's hot algorithms. Benchmarks report
// the headline metric of their figure via b.ReportMetric so `go test
// -bench` output doubles as a results table.

import (
	"math/rand"
	"testing"

	"iris/internal/core"
	"iris/internal/experiments"
	"iris/internal/fibermap"
	"iris/internal/flowsim"
	"iris/internal/graph"
	"iris/internal/hose"
	"iris/internal/optics"
	"iris/internal/plan"
	"iris/internal/stats"
	"iris/internal/traffic"
)

func BenchmarkFig3LatencyInflation(b *testing.B) {
	cfg := experiments.DefaultFig3()
	cfg.Regions = 10
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig3(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.FracOver2x*100, "%pairs>2x")
	}
}

func BenchmarkFig6SitingArea(b *testing.B) {
	cfg := experiments.DefaultFig6()
	cfg.Regions = 6
	cfg.GridCellKM = 3
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig6(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(stats.Median(res.Ratios), "x-fold-median")
	}
}

func BenchmarkFig7PortCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig7()
		b.ReportMetric(rows[len(rows)-1].Electrical, "mesh/central")
	}
}

func BenchmarkToyExampleSection34(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Toy()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Ratio, "eps/iris")
	}
}

func BenchmarkFig9OSNRPenalty(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig9()
		b.ReportMetric(rows[2].PenaltyDB, "dB@3amps")
	}
}

// BenchmarkSweep times the Fig. 12 quick grid fully serial
// (Parallelism 1): it isolates the single-thread wins — the hoisted map
// generation, the reused 0-failure plan, and the memoised shortest-path
// trees — from worker-pool scaling.
func BenchmarkSweep(b *testing.B) {
	cfg := experiments.QuickSweep()
	cfg.Parallelism = 1
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Sweep(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(rows)), "rows")
	}
}

// BenchmarkSweepParallel times the same grid with the worker pool at
// GOMAXPROCS; rows are identical to BenchmarkSweep's by construction.
func BenchmarkSweepParallel(b *testing.B) {
	cfg := experiments.QuickSweep() // Parallelism 0 = GOMAXPROCS
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Sweep(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(rows)), "rows")
	}
}

func BenchmarkFig12aCostCDF(b *testing.B) {
	cfg := experiments.QuickSweep()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Sweep(cfg)
		if err != nil {
			b.Fatal(err)
		}
		r := experiments.ExtractRatios(rows)
		b.ReportMetric(stats.Median(r.EPSOverIris), "eps/iris-median")
	}
}

func BenchmarkFig12bSRCostCDF(b *testing.B) {
	cfg := experiments.QuickSweep()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Sweep(cfg)
		if err != nil {
			b.Fatal(err)
		}
		r := experiments.ExtractRatios(rows)
		b.ReportMetric(stats.Median(r.SROverIris), "sr-eps/iris-median")
	}
}

func BenchmarkFig12cPortRatio(b *testing.B) {
	cfg := experiments.QuickSweep()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Sweep(cfg)
		if err != nil {
			b.Fatal(err)
		}
		r := experiments.ExtractRatios(rows)
		b.ReportMetric(stats.Median(r.PortRatioEPS), "eps-inet/dc-median")
	}
}

func BenchmarkFig12dFailureCost(b *testing.B) {
	cfg := experiments.QuickSweep()
	cfg.MaxFailures = 2
	cfg.MapSeeds = cfg.MapSeeds[:2]
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Sweep(cfg)
		if err != nil {
			b.Fatal(err)
		}
		r := experiments.ExtractRatios(rows)
		b.ReportMetric(stats.Median(r.EPS0OverIris), "eps0/iris2-median")
	}
}

func BenchmarkFig14BERTimeline(b *testing.B) {
	cfg := experiments.DefaultFig14()
	cfg.DurationS = 300
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig14(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.MaxBER, "maxBER")
	}
}

func BenchmarkFig17Slowdown(b *testing.B) {
	cfg := experiments.Fig17Config{
		Seed:      1,
		Utils:     []float64{0.4},
		Bounds:    []float64{0.5},
		Intervals: []float64{10},
		DurationS: 30,
		Dist:      traffic.WebSearch(),
	}
	for i := 0; i < b.N; i++ {
		points, err := experiments.Fig17(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(points[0].All, "p99-slowdown")
	}
}

func BenchmarkFig18Workloads(b *testing.B) {
	cfg := experiments.DefaultFig18()
	cfg.DurationS = 20
	for i := 0; i < b.N; i++ {
		points, err := experiments.Fig18(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(points[0].All, "web1-p99-slowdown")
	}
}

func BenchmarkAppendixAOverhead(b *testing.B) {
	cfg := experiments.QuickSweep()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Sweep(cfg)
		if err != nil {
			b.Fatal(err)
		}
		r := experiments.ExtractRatios(rows)
		b.ReportMetric(stats.Mean(r.Overheads)*100, "%overhead-mean")
	}
}

func BenchmarkAppendixBHybrid(b *testing.B) {
	cfg := experiments.QuickSweep()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Sweep(cfg)
		if err != nil {
			b.Fatal(err)
		}
		res := experiments.AppendixB(rows)
		b.ReportMetric(stats.Median(res.FiberSavedFrac)*100, "%residual-saved")
	}
}

// --- micro-benchmarks for the planner's hot algorithms ---

// benchRegion is the planner benchmarks' region: map 1 with 10 DCs
// placed by seed 2, 16 fiber-pairs each.
func benchRegion(b *testing.B) core.Region {
	b.Helper()
	m, err := fibermap.Placed(1, 2, 10)
	if err != nil {
		b.Fatal(err)
	}
	return core.UniformRegion(m, 16, 40)
}

func BenchmarkDijkstraRegion(b *testing.B) {
	m := benchRegion(b).Map
	dcs := m.DCs()
	g := m.Graph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Dijkstra(dcs[i%len(dcs)])
	}
}

func BenchmarkMaxFlow(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := graph.NewFlowNetwork(40)
		for j := 0; j < 200; j++ {
			u, v := rng.Intn(40), rng.Intn(40)
			if u != v {
				f.AddArc(u, v, float64(1+rng.Intn(16)))
			}
		}
		f.MaxFlow(0, 39)
	}
}

func BenchmarkHoseWorstCaseLoad(b *testing.B) {
	caps := make(map[int]float64)
	var pairs []hose.Pair
	for i := 0; i < 20; i++ {
		caps[i] = 16
		for j := i + 1; j < 20; j++ {
			pairs = append(pairs, hose.Pair{A: i, B: j})
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hose.WorstCaseLoad(caps, pairs)
	}
}

func BenchmarkPlanNoFailures(b *testing.B) {
	r := benchRegion(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := plan.New(plan.Input{Map: r.Map, Capacity: r.Capacity, Lambda: r.Lambda}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPlanTwoFailures(b *testing.B) {
	r := benchRegion(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pl, err := plan.New(plan.Input{Map: r.Map, Capacity: r.Capacity, Lambda: r.Lambda, MaxFailures: 2})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(pl.NScena), "scenarios")
	}
}

// BenchmarkFullSolve measures the redesigned entry point: a warmed
// core.Solver re-solving the 10-DC bench region (plan plus all three
// priced breakdowns) on its retained arena. The acceptance gate for the
// Solver API is ≥3× faster than the fresh-workspace path per solve;
// BenchmarkFullSolveCold measures that path (one throwaway Solver per
// iteration, the old core.Plan cost shape) on the same region.
func BenchmarkFullSolve(b *testing.B) {
	region := benchRegion(b)
	opts := core.DefaultOptions()
	opts.MaxFailures = 1
	s := core.NewSolver(opts)
	if _, err := s.Solve(region); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Solve(region); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFullSolveCold(b *testing.B) {
	region := benchRegion(b)
	opts := core.DefaultOptions()
	opts.MaxFailures = 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Plan(region, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOpticsEvaluate(b *testing.B) {
	pathA, _ := optics.TestbedPaths()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		optics.Evaluate(pathA)
	}
}

func BenchmarkFlowsimPipe(b *testing.B) {
	cfg := flowsim.Config{
		Seed: 1, DurationS: 10, Dist: traffic.WebSearch(),
		Pipes: []flowsim.Pipe{{CapacityGbps: 10, UtilFrac: 0.5}},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := flowsim.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(res.Flows)), "flows")
	}
}

// BenchmarkFlowsimLoad drives the bucketed load engine through a
// user-scale event: a single fat pipe whose full 2.5s outage accumulates
// a backlog of over a million concurrent flows, then drains it. The
// peak-flows metric is the acceptance gate for "millions of flows
// through a reconfiguring region"; flows is the total simulated.
func BenchmarkFlowsimLoad(b *testing.B) {
	dist := traffic.FBWeb()
	// Size the pipe so the outage backlog passes 1.2M flows:
	// lambda = util*capacity/mean, backlog ≈ lambda*outage.
	const (
		util          = 0.5
		outageS       = 2.5
		targetBacklog = 1.3e6
	)
	lambda := targetBacklog / outageS
	capGbps := lambda * dist.Mean() * 8 / util / 1e9
	cfg := flowsim.LoadConfig{
		Seed: 1, DurationS: 8, Dist: dist,
		Pipes:        []flowsim.Pipe{{CapacityGbps: capGbps, UtilFrac: util}},
		Dips:         map[int][]flowsim.Dip{0: {{TimeS: 2, DurationS: outageS, FracLost: 1}}},
		BucketCredit: dist.Max() / 4096,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := flowsim.RunLoad(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if st.PeakConcurrent < 1_000_000 {
			b.Fatalf("peak concurrency %d under 1M", st.PeakConcurrent)
		}
		b.ReportMetric(float64(st.PeakConcurrent), "peak-flows")
		b.ReportMetric(float64(st.Flows), "flows")
	}
}
