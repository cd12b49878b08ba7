package flowsim

import (
	"fmt"
	"math"
	"sync"

	"iris/internal/core"
	"iris/internal/hose"
	"iris/internal/jsonw"
	"iris/internal/telemetry"
	"iris/internal/traffic"
)

// Monitor attaches the load engine to a live control plane: after every
// drained reconfiguration (and every chaos-cycle repair) it replays the
// change as capacity dips over the current allocation, runs the dipped
// and clean simulations on identical arrivals, and publishes the flow
// slowdown quantiles and stranded bytes as iris_flowsim_* metrics. It is
// the §6.3 experiment running continuously against whatever the daemon
// actually did, instead of a scripted scenario.
type Monitor struct {
	cfg MonitorConfig

	mu   sync.Mutex
	last *Impact

	runs      *telemetry.Counter
	flows     *telemetry.Counter
	stranded  *telemetry.Counter
	slowdown  *telemetry.GaugeVec
	p99Hist   *telemetry.Histogram
	peakFlows *telemetry.Gauge
}

// MonitorConfig parameterises the monitor. Zero values select defaults.
type MonitorConfig struct {
	// Seed makes the per-reconfiguration simulations deterministic; each
	// observation folds the reconfig ID into it.
	Seed int64
	// Dist is the flow-size workload (default FBWeb).
	Dist traffic.SizeDist
	// Util is the offered load per pipe as a fraction of its allocated
	// capacity (default 0.6).
	Util float64
	// GbpsPerWavelength scales circuit capacity into simulated rate; the
	// slowdown ratio is scale-free, so the default 0.25 keeps each
	// observation cheap (see RegionExperiment).
	GbpsPerWavelength float64
	// WindowS is the simulated window around each reconfiguration
	// (default 4s; the dip lands at its midpoint).
	WindowS float64
	// Shape optionally modulates arrivals (diurnal swing, flash crowds).
	Shape *traffic.Shape
	// Registry receives the monitor's metrics (a fresh one if nil).
	Registry *telemetry.Registry
}

// Impact is the flow-level cost of one reconfiguration, served on
// /status as flow_impact.
type Impact struct {
	ReconfigID uint64 `json:"reconfig_id"`
	// Kind is "reconfig" for a traffic-driven convergence, "repair" for
	// a chaos/repair cycle.
	Kind string `json:"kind"`
	// Pipes is how many DC-pair pipes the change dimmed; Flows is how
	// many completed flows the dipped simulation measured.
	Pipes int    `json:"pipes"`
	Flows uint64 `json:"flows"`
	// P50/P99/P999 are FCT slowdowns: the dipped run's quantile over the
	// clean run's, on identical arrivals.
	P50  float64 `json:"p50_slowdown"`
	P99  float64 `json:"p99_slowdown"`
	P999 float64 `json:"p999_slowdown"`
	// BytesStranded is demand displaced by the drain (see LoadStats).
	BytesStranded float64 `json:"bytes_stranded"`
	// PeakConcurrent is the dipped run's peak active-flow count.
	PeakConcurrent uint64  `json:"peak_concurrent"`
	DurationS      float64 `json:"drain_seconds"`
}

func (imp Impact) AppendJSON(b []byte) []byte {
	b = jsonw.Uint(append(b, `{"reconfig_id":`...), imp.ReconfigID)
	b = jsonw.String(append(b, `,"kind":`...), imp.Kind)
	b = jsonw.Int(append(b, `,"pipes":`...), imp.Pipes)
	b = jsonw.Uint(append(b, `,"flows":`...), imp.Flows)
	b = jsonw.Float(append(b, `,"p50_slowdown":`...), imp.P50)
	b = jsonw.Float(append(b, `,"p99_slowdown":`...), imp.P99)
	b = jsonw.Float(append(b, `,"p999_slowdown":`...), imp.P999)
	b = jsonw.Float(append(b, `,"bytes_stranded":`...), imp.BytesStranded)
	b = jsonw.Uint(append(b, `,"peak_concurrent":`...), imp.PeakConcurrent)
	b = jsonw.Float(append(b, `,"drain_seconds":`...), imp.DurationS)
	return append(b, '}')
}

var slowdownBuckets = []float64{1, 1.01, 1.02, 1.05, 1.1, 1.2, 1.5, 2, 3, 5, 10}

// NewMonitor validates the configuration and registers the metrics.
func NewMonitor(cfg MonitorConfig) (*Monitor, error) {
	if cfg.Dist.Name() == "" {
		cfg.Dist = traffic.FBWeb()
	}
	if cfg.Util == 0 {
		cfg.Util = 0.6
	}
	if cfg.Util < 0 || cfg.Util >= 1 {
		return nil, fmt.Errorf("flowsim: monitor utilization %v outside [0,1)", cfg.Util)
	}
	if cfg.GbpsPerWavelength <= 0 {
		cfg.GbpsPerWavelength = 0.25
	}
	if cfg.WindowS <= 0 {
		cfg.WindowS = 4
	}
	if cfg.Registry == nil {
		cfg.Registry = telemetry.NewRegistry()
	}
	r := cfg.Registry
	m := &Monitor{
		cfg:       cfg,
		runs:      r.Counter("iris_flowsim_runs_total", "Reconfigurations whose flow impact was simulated."),
		flows:     r.Counter("iris_flowsim_flows_simulated_total", "Flows completed across all impact simulations."),
		stranded:  r.Counter("iris_flowsim_bytes_stranded_total", "Bytes of demand displaced by drains across all simulated reconfigurations."),
		slowdown:  r.GaugeVec("iris_flowsim_slowdown", "FCT slowdown of the last simulated reconfiguration, dipped over clean.", "quantile"),
		p99Hist:   r.Histogram("iris_flowsim_p99_slowdown", "Per-reconfiguration p99 FCT slowdown.", slowdownBuckets),
		peakFlows: r.Gauge("iris_flowsim_peak_flows", "Peak concurrent flows in the last impact simulation."),
	}
	return m, nil
}

// ObserveReconfig simulates one traffic-driven convergence: each moved
// pair's pipe dips by the move's affected fraction for the drain
// duration.
func (m *Monitor) ObserveReconfig(id uint64, alloc core.Allocation, lambda int, moves []core.Move, drainS float64) (Impact, error) {
	return m.observe(id, "reconfig", alloc, lambda, moves, drainS)
}

// ObserveRepair simulates a repair pass: each pipe the repair darkened
// dips by its share (fabric.Fabric.Darkened) for the repair's duration.
func (m *Monitor) ObserveRepair(id uint64, alloc core.Allocation, lambda int, darkened []core.Move, drainS float64) (Impact, error) {
	return m.observe(id, "repair", alloc, lambda, darkened, drainS)
}

func (m *Monitor) observe(id uint64, kind string, alloc core.Allocation, lambda int, moves []core.Move, drainS float64) (Impact, error) {
	if lambda <= 0 {
		return Impact{}, fmt.Errorf("flowsim: monitor needs lambda > 0")
	}
	// Pipes from the committed allocation, one per pair with circuits.
	pairs := make(map[hose.Pair]bool)
	for p := range alloc.Fibers {
		pairs[p.Canonical()] = true
	}
	for p := range alloc.Residual {
		pairs[p.Canonical()] = true
	}
	// Deterministic pipe order: map iteration would shuffle the per-pipe
	// RNG streams between observations of the same reconfiguration.
	sorted := make([]hose.Pair, 0, len(pairs))
	for p := range pairs {
		sorted = append(sorted, p)
	}
	hose.SortPairs(sorted)
	pipeIdx := make(map[hose.Pair]int)
	var pipes []Pipe
	for _, p := range sorted {
		wl := float64(alloc.Fibers[p]*lambda + alloc.Residual[p])
		if wl <= 0 {
			continue
		}
		pipeIdx[p] = len(pipes)
		pipes = append(pipes, Pipe{CapacityGbps: wl * m.cfg.GbpsPerWavelength, UtilFrac: m.cfg.Util})
	}
	if len(pipes) == 0 {
		return Impact{}, fmt.Errorf("flowsim: allocation has no circuits to monitor")
	}

	window := m.cfg.WindowS
	if drainS <= 0 || drainS > window/2 {
		drainS = math.Min(math.Max(drainS, 0.070), window/2)
	}
	dipAt := window / 2
	dips := make(map[int][]Dip)
	for _, mv := range moves {
		idx, ok := pipeIdx[mv.Pair.Canonical()]
		if !ok || mv.FracAffected <= 0 {
			continue
		}
		dips[idx] = append(dips[idx], Dip{TimeS: dipAt, DurationS: drainS, FracLost: mv.FracAffected})
	}

	imp := Impact{ReconfigID: id, Kind: kind, Pipes: len(dips), DurationS: drainS, P50: 1, P99: 1, P999: 1}
	if len(dips) > 0 {
		base := LoadConfig{
			Seed: m.cfg.Seed ^ int64(id)*0x9e3779b9, DurationS: window, WarmupS: window / 4,
			Dist: m.cfg.Dist, Pipes: pipes, Shape: m.cfg.Shape,
		}
		dipped := base
		dipped.Dips = dips
		dst, err := RunLoad(dipped)
		if err != nil {
			return Impact{}, err
		}
		cst, err := RunLoad(base)
		if err != nil {
			return Impact{}, err
		}
		imp.Flows = dst.Flows
		imp.BytesStranded = dst.BytesStranded
		imp.PeakConcurrent = dst.PeakConcurrent
		imp.P50 = quantileRatio(dst.FCT, cst.FCT, 0.50)
		imp.P99 = quantileRatio(dst.FCT, cst.FCT, 0.99)
		imp.P999 = quantileRatio(dst.FCT, cst.FCT, 0.999)
	}

	m.runs.Inc()
	m.flows.Add(float64(imp.Flows))
	m.stranded.Add(imp.BytesStranded)
	m.slowdown.With("p50").Set(imp.P50)
	m.slowdown.With("p99").Set(imp.P99)
	m.slowdown.With("p999").Set(imp.P999)
	m.p99Hist.Observe(imp.P99)
	m.peakFlows.Set(float64(imp.PeakConcurrent))
	m.mu.Lock()
	m.last = &imp
	m.mu.Unlock()
	return imp, nil
}

// Last returns the most recent impact, or nil before any observation.
func (m *Monitor) Last() *Impact {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.last == nil {
		return nil
	}
	cp := *m.last
	return &cp
}

func quantileRatio(dipped, clean *Sketch, q float64) float64 {
	c := clean.Quantile(q)
	if c <= 0 {
		return 1
	}
	return dipped.Quantile(q) / c
}
