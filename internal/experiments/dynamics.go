package experiments

import (
	"fmt"
	"strings"

	"iris/internal/core"
	"iris/internal/fibermap"
	"iris/internal/flowsim"
	"iris/internal/optics"
	"iris/internal/traffic"
)

// ---------------------------------------------------------------------------
// Fig. 14: BER over time across reconfigurations.

// Fig14Config parameterises the physical-layer reconfiguration experiment.
type Fig14Config struct {
	Seed       int64
	DurationS  float64
	IntervalS  float64
	RecoveryMS float64 // 50 (one hut) or 70 (two huts)
}

// DefaultFig14 matches the testbed run: minute-spaced reconfigurations.
func DefaultFig14() Fig14Config {
	return Fig14Config{Seed: 1, DurationS: 600, IntervalS: 60, RecoveryMS: optics.ReconfigRecoveryMS}
}

// Fig14Result summarises the BER timeline.
type Fig14Result struct {
	Samples   []optics.BERSample
	MaxBER    float64
	OutageMS  float64
	Reconfigs int
}

// Fig14 runs the experiment on the simulated testbed paths.
func Fig14(cfg Fig14Config) (Fig14Result, error) {
	pathA, pathB := optics.TestbedPaths()
	exp := optics.ReconfigExperiment{
		Seed:       cfg.Seed,
		DurationS:  cfg.DurationS,
		IntervalS:  cfg.IntervalS,
		SampleMS:   10,
		PathA:      pathA,
		PathB:      pathB,
		RecoveryMS: cfg.RecoveryMS,
	}
	samples, err := exp.Run()
	if err != nil {
		return Fig14Result{}, err
	}
	return Fig14Result{
		Samples:   samples,
		MaxBER:    optics.MaxBER(samples),
		OutageMS:  optics.OutageMS(samples),
		Reconfigs: int(cfg.DurationS/cfg.IntervalS) - 1 + 1, // switches at every interval boundary after t=0
	}, nil
}

// Format renders the Fig. 14 summary and a downsampled timeline.
func (r Fig14Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 14 — pre-FEC BER across reconfigurations\n")
	fmt.Fprintf(&b, "max BER %.2e (FEC threshold %.0e)\n", r.MaxBER, optics.SoftFECBERThreshold)
	fmt.Fprintf(&b, "total signal loss %.0f ms over %d switches (≈%.0f ms each; paper: 50-70 ms)\n",
		r.OutageMS, r.Reconfigs, r.OutageMS/float64(max(r.Reconfigs, 1)))
	// One line per 30 s of timeline.
	step := len(r.Samples) / 20
	if step == 0 {
		step = 1
	}
	fmt.Fprintf(&b, "%-10s %-12s %s\n", "t (s)", "BER", "signal")
	for i := 0; i < len(r.Samples); i += step {
		s := r.Samples[i]
		if s.Signal {
			fmt.Fprintf(&b, "%-10.1f %-12.2e up\n", s.TimeS, s.BER)
		} else {
			fmt.Fprintf(&b, "%-10.1f %-12s DOWN (recovering)\n", s.TimeS, "-")
		}
	}
	return b.String()
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// ---------------------------------------------------------------------------
// Fig. 17: FCT slowdown vs. reconfiguration interval.

// Fig17Config parameterises the slowdown sweep.
type Fig17Config struct {
	Seed      int64
	Utils     []float64 // {0.4, 0.7} in the paper's figure
	Bounds    []float64 // 0.5 (bounded) and 0 (unbounded)
	Intervals []float64 // seconds between traffic changes
	DurationS float64
	Dist      traffic.SizeDist
}

// DefaultFig17 matches the paper's figure axes at a tractable duration.
func DefaultFig17() Fig17Config {
	return Fig17Config{
		Seed:      42,
		Utils:     []float64{0.4, 0.7},
		Bounds:    []float64{0.5, 0},
		Intervals: []float64{1, 5, 10, 20, 30},
		DurationS: 60,
		Dist:      traffic.WebSearch(),
	}
}

// Fig17Point is one operating point's slowdown.
type Fig17Point struct {
	Util      float64
	Bound     float64 // 0 = unbounded
	IntervalS float64
	All       float64
	Short     float64
	Reconfigs int
}

// Fig17 runs the sweep.
func Fig17(cfg Fig17Config) ([]Fig17Point, error) {
	var points []Fig17Point
	for _, util := range cfg.Utils {
		for _, bound := range cfg.Bounds {
			for _, interval := range cfg.Intervals {
				e := flowsim.DefaultExperiment(cfg.Seed, util, interval, bound, cfg.Dist)
				e.DurationS = cfg.DurationS
				rep, err := e.Run()
				if err != nil {
					return nil, fmt.Errorf("util=%v bound=%v interval=%v: %w", util, bound, interval, err)
				}
				points = append(points, Fig17Point{
					Util: util, Bound: bound, IntervalS: interval,
					All: rep.All, Short: rep.Short, Reconfigs: rep.Reconfigs,
				})
			}
		}
	}
	return points, nil
}

// FormatFig17 renders the four panels.
func FormatFig17(points []Fig17Point) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 17 — 99th-percentile FCT slowdown (Iris / EPS)\n")
	fmt.Fprintf(&b, "%-6s %-10s %-10s %-10s %-10s %s\n",
		"util", "changes", "interval", "all", "short", "reconfigs")
	for _, p := range points {
		changes := fmt.Sprintf("%.0f%%", p.Bound*100)
		if p.Bound <= 0 {
			changes = "unbounded"
		}
		fmt.Fprintf(&b, "%-6.0f%% %-10s %-9.0fs %-10.3f %-10.3f %d\n",
			p.Util*100, changes, p.IntervalS, p.All, p.Short, p.Reconfigs)
	}
	fmt.Fprintf(&b, "(paper: ≤2%% slowdown for intervals ≥10 s except unbounded changes)\n")
	return b.String()
}

// ---------------------------------------------------------------------------
// Fig. 17 on a planned region: the same reconfiguration-impact study with
// pipes, capacities and dips taken from an actual deployment and its
// circuit allocator, rather than the abstract pipe model.

// Fig17RegionConfig parameterises the region-grounded dynamics study.
type Fig17RegionConfig struct {
	Seed      int64
	MapSeed   int64
	NDCs      int
	F         int // fiber-pairs per DC
	Lambda    int
	Utils     []float64
	Intervals []float64
	Bound     float64
	DurationS float64
	Dist      traffic.SizeDist
}

// DefaultFig17Region returns the region-grounded configuration.
func DefaultFig17Region() Fig17RegionConfig {
	return Fig17RegionConfig{
		Seed: 42, MapSeed: 1, NDCs: 8, F: 16, Lambda: 40,
		Utils:     []float64{0.4, 0.7},
		Intervals: []float64{1, 5, 10, 30},
		Bound:     0.5,
		DurationS: 40,
		Dist:      traffic.WebSearch(),
	}
}

// Fig17Region runs the study on one planned deployment.
func Fig17Region(cfg Fig17RegionConfig) ([]Fig17Point, error) {
	m, err := fibermap.Spec{Seed: cfg.MapSeed, DCs: cfg.NDCs}.Map()
	if err != nil {
		return nil, err
	}
	dep, err := core.Plan(core.UniformRegion(m, cfg.F, cfg.Lambda), core.Options{})
	if err != nil {
		return nil, err
	}
	var points []Fig17Point
	for _, util := range cfg.Utils {
		for _, interval := range cfg.Intervals {
			e := flowsim.DefaultRegionExperiment(dep, cfg.Seed, util, interval, cfg.Bound, cfg.Dist)
			e.DurationS = cfg.DurationS
			rep, err := e.Run()
			if err != nil {
				return nil, fmt.Errorf("util=%v interval=%v: %w", util, interval, err)
			}
			points = append(points, Fig17Point{
				Util: util, Bound: cfg.Bound, IntervalS: interval,
				All: rep.All, Short: rep.Short, Reconfigs: rep.Reconfigs,
			})
		}
	}
	return points, nil
}

// FormatFig17Region renders the region-grounded results.
func FormatFig17Region(points []Fig17Point) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 17 (region-grounded) — slowdown on a planned 8-DC deployment\n")
	fmt.Fprintf(&b, "%-6s %-10s %-10s %-10s %s\n", "util", "interval", "all", "short", "reconfigs")
	for _, p := range points {
		fmt.Fprintf(&b, "%-6.0f%% %-9.0fs %-10.3f %-10.3f %d\n",
			p.Util*100, p.IntervalS, p.All, p.Short, p.Reconfigs)
	}
	fmt.Fprintf(&b, "(circuit capacities and dips come from the deployment's allocator)\n")
	return b.String()
}

// ---------------------------------------------------------------------------
// Fig. 18: slowdown across workloads.

// Fig18Config parameterises the workload comparison.
type Fig18Config struct {
	Seed      int64
	Util      float64
	Bound     float64
	IntervalS float64
	DurationS float64
}

// DefaultFig18 matches the paper: 40% utilization, 50% changes, 5 s
// reconfiguration interval.
func DefaultFig18() Fig18Config {
	return Fig18Config{Seed: 42, Util: 0.4, Bound: 0.5, IntervalS: 5, DurationS: 60}
}

// Fig18Point is one workload's slowdown.
type Fig18Point struct {
	Workload string
	All      float64
	Short    float64
}

// Fig18 runs all four workloads.
func Fig18(cfg Fig18Config) ([]Fig18Point, error) {
	var points []Fig18Point
	for _, dist := range traffic.Workloads() {
		e := flowsim.DefaultExperiment(cfg.Seed, cfg.Util, cfg.IntervalS, cfg.Bound, dist)
		e.DurationS = cfg.DurationS
		rep, err := e.Run()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", dist.Name(), err)
		}
		points = append(points, Fig18Point{Workload: dist.Name(), All: rep.All, Short: rep.Short})
	}
	return points, nil
}

// FormatFig18 renders the bar values.
func FormatFig18(points []Fig18Point) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 18 — 99th-percentile FCT slowdown by workload (40%% util, 50%% changes, 5 s)\n")
	fmt.Fprintf(&b, "%-10s %-10s %s\n", "workload", "all", "short")
	for _, p := range points {
		fmt.Fprintf(&b, "%-10s %-10.3f %.3f\n", p.Workload, p.All, p.Short)
	}
	fmt.Fprintf(&b, "(paper: <2%% slowdown across all workloads)\n")
	return b.String()
}
