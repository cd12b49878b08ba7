package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"iris/internal/core"
	"iris/internal/fibermap"
	"iris/internal/flowsim"
	"iris/internal/robust"
	"iris/internal/traffic"
)

// The robust ablation is the METTEOR question asked of this region
// design: how much reconfiguration churn does a single envelope
// allocation buy off, and what does that cost in overprovisioned
// capacity? Each cell replays one seeded §6.3 change process through the
// two policies irisd runs, over the SAME matrix sequence — per-shift
// incremental deltas (core.PerShift, the daemon's default) versus a
// robust envelope that only re-plans on escape (robust.Policy) — and
// charges every committed change with the flow-level impact monitor (p99
// FCT slowdown, stranded bytes).

// RobustAblationConfig drives RobustAblation.
type RobustAblationConfig struct {
	Seed int64
	// Steps is the number of traffic shifts replayed per cell.
	Steps int
	// Windows are the envelope window sizes swept (matrices per solve).
	Windows []int
	// Bounds are the change-process volatilities swept (per-step drift
	// bound of §6.3).
	Bounds []float64
	// Util is the per-DC utilization of the base matrix.
	Util float64
	// Headroom is robust.Config's (zero selects its default).
	Headroom float64
	// DrainS is the charged drain duration per committed change.
	DrainS float64
}

// DefaultRobustAblation is a toy-region grid small enough for CI: three
// window sizes against calm and volatile drift.
func DefaultRobustAblation() RobustAblationConfig {
	return RobustAblationConfig{
		Seed: 1, Steps: 30,
		Windows: []int{2, 4, 8},
		Bounds:  []float64{0.2, 0.6},
		Util:    0.5, Headroom: 1.15,
		DrainS: 0.070,
	}
}

// RobustAblationRow is one (window, bound) cell's outcome.
type RobustAblationRow struct {
	Window int     `json:"window"`
	Bound  float64 `json:"bound"`
	// Reconfiguration counts over the identical Steps-shift sequence.
	DeltaReconfigs  int `json:"delta_reconfigs"`
	RobustReconfigs int `json:"robust_reconfigs"`
	// Absorbed is how many shifts the envelope contained outright.
	Absorbed int `json:"absorbed"`
	// Worst p99 FCT slowdown and total stranded bytes across each mode's
	// committed changes.
	DeltaP99       float64 `json:"delta_p99"`
	RobustP99      float64 `json:"robust_p99"`
	DeltaStranded  float64 `json:"delta_stranded_bytes"`
	RobustStranded float64 `json:"robust_stranded_bytes"`
	// Overprovision is the mean provisioned-over-mean-demand ratio of the
	// robust envelopes committed in this cell (the METTEOR capacity tax);
	// AllAdmissible reports whether every committed envelope verified
	// against its full matrix set.
	Overprovision float64 `json:"overprovision"`
	AllAdmissible bool    `json:"all_admissible"`
}

// RobustAblation replays each cell's seeded change process through both
// policies and reports the churn/overprovisioning trade.
func RobustAblation(cfg RobustAblationConfig) ([]RobustAblationRow, error) {
	if cfg.Steps <= 1 || len(cfg.Windows) == 0 || len(cfg.Bounds) == 0 {
		return nil, fmt.Errorf("experiments: invalid robust ablation %+v", cfg)
	}
	if cfg.DrainS <= 0 {
		cfg.DrainS = 0.070
	}
	dep, err := robustDeployment()
	if err != nil {
		return nil, err
	}

	var rows []RobustAblationRow
	for _, bound := range cfg.Bounds {
		// One matrix sequence per bound, shared verbatim by every window
		// size and both modes: the comparison is of policies, not draws.
		ms, err := matrixSequence(dep, cfg, bound)
		if err != nil {
			return nil, err
		}
		delta, err := replay(dep, ms, &core.PerShift{}, cfg)
		if err != nil {
			return nil, fmt.Errorf("bound %v delta mode: %w", bound, err)
		}
		for _, w := range cfg.Windows {
			pol := robust.NewPolicy(robust.Config{Window: w, Headroom: cfg.Headroom})
			rob, err := replay(dep, ms, pol, cfg)
			if err != nil {
				return nil, fmt.Errorf("bound %v window %d robust mode: %w", bound, w, err)
			}
			rows = append(rows, RobustAblationRow{
				Window: w, Bound: bound,
				DeltaReconfigs: delta.reconfigs, RobustReconfigs: rob.reconfigs,
				Absorbed: rob.absorbed,
				DeltaP99: delta.p99, RobustP99: rob.p99,
				DeltaStranded: delta.stranded, RobustStranded: rob.stranded,
				Overprovision: rob.overprovision, AllAdmissible: rob.allAdmissible,
			})
		}
	}
	return rows, nil
}

// robustDeployment plans the ablation's region: the toy map, 10
// fiber-pairs per DC, 40 wavelengths.
func robustDeployment() (*core.Deployment, error) {
	r := fibermap.Toy()
	caps := make(map[int]int)
	for _, dc := range r.Map.DCs() {
		caps[dc] = 10
	}
	return core.Plan(core.Region{Map: r.Map, Capacity: caps, Lambda: 40}, core.DefaultOptions())
}

// matrixSequence rolls the cell's full shift sequence up front.
func matrixSequence(dep *core.Deployment, cfg RobustAblationConfig, bound float64) ([]*traffic.Matrix, error) {
	capsW := make(map[int]float64)
	for dc, c := range dep.Region.Capacity {
		capsW[dc] = float64(c * dep.Region.Lambda)
	}
	dcs := dep.Region.Map.DCs()
	cp := traffic.ChangeProcess{Bound: bound, Caps: capsW, Util: cfg.Util}
	base := traffic.HeavyTailed(rand.New(rand.NewSource(cfg.Seed)), dcs, capsW, cfg.Util)
	ev := traffic.NewEvolver(cfg.Seed+1, base, cp)
	ms := make([]*traffic.Matrix, 0, cfg.Steps)
	for i := 0; i < cfg.Steps; i++ {
		m, ok := ev.Next()
		if !ok {
			return nil, fmt.Errorf("evolver exhausted at step %d", i)
		}
		ms = append(ms, m)
	}
	return ms, nil
}

type modeOutcome struct {
	reconfigs     int
	absorbed      int
	p99           float64
	stranded      float64
	overprovision float64
	allAdmissible bool
}

// replay drives one policy through the cell's shifts the way irisd's
// converge step does — adopt every outcome, count a reconfiguration
// whenever the allocation changes — and charges every change after the
// initial convergence. For the envelope rule it also totals what the
// envelope absorbed and what its solves cost.
func replay(dep *core.Deployment, ms []*traffic.Matrix, pol core.Policy, cfg RobustAblationConfig) (modeOutcome, error) {
	out := modeOutcome{allAdmissible: true}
	mon, err := flowsim.NewMonitor(flowsim.MonitorConfig{Seed: cfg.Seed})
	if err != nil {
		return out, err
	}
	env, _ := pol.(*robust.Policy)
	var (
		opSum  float64
		solves int
	)
	for i, tm := range ms {
		o, err := pol.Shift(dep, tm, i)
		if err != nil {
			return out, fmt.Errorf("step %d: %w", i, err)
		}
		pol.Adopt()
		if env != nil {
			if sol := env.Last().Solved; sol != nil {
				opSum += sol.Overprovision
				solves++
				out.allAdmissible = out.allAdmissible && sol.AllAdmissible
			}
		}
		if !o.Changed {
			continue
		}
		out.reconfigs++
		if out.reconfigs > 1 {
			imp, err := mon.ObserveReconfig(uint64(out.reconfigs), o.Alloc, dep.Region.Lambda, core.Moves(o.Pairs), cfg.DrainS)
			if err != nil {
				return out, err
			}
			if imp.P99 > out.p99 {
				out.p99 = imp.P99
			}
			out.stranded += imp.BytesStranded
		}
	}
	if env != nil {
		out.absorbed = int(env.Tally().Absorbed)
	}
	if solves > 0 {
		out.overprovision = opSum / float64(solves)
	}
	return out, nil
}

// FormatRobustAblation renders the ablation grid.
func FormatRobustAblation(rows []RobustAblationRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Robust ablation — envelope (METTEOR) vs per-shift deltas on identical seeded feeds\n")
	fmt.Fprintf(&b, "%-7s %-6s %-9s %-9s %-9s %-10s %-10s %-9s %s\n",
		"window", "bound", "Δreconf", "Rreconf", "absorbed", "Δp99", "Rp99", "overprov", "admissible")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-7d %-6.2f %-9d %-9d %-9d %-10.4f %-10.4f %-9.2f %v\n",
			r.Window, r.Bound, r.DeltaReconfigs, r.RobustReconfigs, r.Absorbed,
			r.DeltaP99, r.RobustP99, r.Overprovision, r.AllAdmissible)
	}
	fmt.Fprintf(&b, "robust re-plans only on envelope escape: fewer touches, bounded flow impact,\n")
	fmt.Fprintf(&b, "paid for in the overprovision column (provisioned over mean demand)\n")
	return b.String()
}
