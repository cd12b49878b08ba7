package experiments

import (
	"fmt"
	"math"
	"strings"

	"iris/internal/chaos"
	"iris/internal/core"
	"iris/internal/fibermap"
)

// ---------------------------------------------------------------------------
// Survivability audit: replaying failure scenarios against a finished plan.
//
// The paper plans for up to MaxFailures simultaneous duct cuts (§4.1); this
// experiment closes the loop by independently re-routing every DC pair under
// each failure scenario and checking the provisioned fiber still admits the
// worst-case hose load. The exhaustive sweep up to the plan's tolerance must
// come back 100% admissible; deeper cuts and correlated site/geo events show
// where the guarantee ends.

// SurvivabilityConfig parameterises the audit.
type SurvivabilityConfig struct {
	// Toy selects the paper's Fig. 10 example region; otherwise a synthetic
	// region is generated from Seed with DCs data centers.
	Toy  bool
	Seed int64
	DCs  int
	// Capacity is each DC's hose capacity in fiber-pairs; Lambda the
	// wavelengths per fiber.
	Capacity int
	Lambda   int
	// MaxFailures is the plan's duct-cut tolerance (the paper's default 2).
	MaxFailures int
	// MaxCuts is the audit depth: every cut set up to this size is
	// enumerated. Auditing one past the tolerance shows the cliff.
	MaxCuts int
	// GeoEvents correlated geo-radius scenarios of GeoRadiusKM are drawn
	// on top of the exhaustive sweep (0 disables them).
	GeoEvents   int
	GeoRadiusKM float64
	// Parallelism bounds the audit workers (0 = GOMAXPROCS, 1 = serial).
	Parallelism int
}

// DefaultSurvivability audits the toy region's 2-failure plan one cut past
// its tolerance, plus twenty correlated events.
func DefaultSurvivability() SurvivabilityConfig {
	return SurvivabilityConfig{
		Toy:         true,
		Seed:        1,
		DCs:         4,
		Capacity:    10,
		Lambda:      40,
		MaxFailures: 2,
		MaxCuts:     3,
		GeoEvents:   20,
		GeoRadiusKM: 6,
	}
}

// ClassPoint aggregates the audits of one scenario class (hut loss, DC
// loss, amplifier failure, geo event).
type ClassPoint struct {
	Kind       chaos.Kind `json:"kind"`
	Scenarios  int        `json:"scenarios"`
	Admissible int        `json:"admissible"`
	Surviving  int        `json:"surviving"`
}

// SurvivabilityResult is the experiment outcome.
type SurvivabilityResult struct {
	Region      string `json:"region"`
	MaxFailures int    `json:"max_failures"`
	// Curve is one point per cut count of the exhaustive duct-cut sweep.
	Curve []chaos.CurvePoint `json:"curve"`
	// WorstPairFibers is, per cut count, the minimum residual worst-pair
	// throughput seen across that count's scenarios.
	WorstPairFibers []float64 `json:"worst_pair_fibers"`
	// Classes aggregates the site-correlated scenario classes.
	Classes []ClassPoint `json:"classes"`
	// Cuts holds every duct-cut audit, for CSV/JSON consumers.
	Cuts []chaos.Result `json:"-"`
}

// Survivability plans the configured region and audits it.
func Survivability(cfg SurvivabilityConfig) (*SurvivabilityResult, error) {
	m, err := fibermap.Spec{Toy: cfg.Toy, Seed: cfg.Seed, DCs: cfg.DCs}.Map()
	if err != nil {
		return nil, fmt.Errorf("place DCs: %w", err)
	}
	name := "toy (Fig. 10)"
	if !cfg.Toy {
		name = fmt.Sprintf("synthetic seed=%d dcs=%d", cfg.Seed, len(m.DCs()))
	}
	dep, err := core.Plan(core.UniformRegion(m, cfg.Capacity, cfg.Lambda), core.Options{MaxFailures: cfg.MaxFailures})
	if err != nil {
		return nil, err
	}

	a := chaos.NewAuditor(dep.Plan)
	res := &SurvivabilityResult{Region: name, MaxFailures: cfg.MaxFailures}
	res.Cuts = a.Run(chaos.EnumerateCuts(m, cfg.MaxCuts), cfg.Parallelism)
	res.Curve = chaos.Curve(res.Cuts)

	worst := make(map[int]float64)
	for _, r := range res.Cuts {
		w, ok := worst[r.Cuts]
		if !ok {
			w = math.Inf(1)
		}
		worst[r.Cuts] = math.Min(w, r.WorstPairFibers)
	}
	for _, p := range res.Curve {
		res.WorstPairFibers = append(res.WorstPairFibers, worst[p.Cuts])
	}

	classes := [][]chaos.Scenario{
		chaos.HutLossScenarios(m),
		chaos.DCLossScenarios(m),
		chaos.AmpFailureScenarios(dep.Plan),
	}
	if cfg.GeoEvents > 0 {
		classes = append(classes, chaos.GeoEvents(cfg.Seed, m, cfg.GeoRadiusKM, cfg.GeoEvents))
	}
	for _, scs := range classes {
		if len(scs) == 0 {
			continue
		}
		cp := ClassPoint{Kind: scs[0].Kind}
		for _, r := range a.Run(scs, cfg.Parallelism) {
			cp.Scenarios++
			if r.Admissible {
				cp.Admissible++
			}
			if r.Survives {
				cp.Surviving++
			}
		}
		res.Classes = append(res.Classes, cp)
	}
	return res, nil
}

// Format renders the survivability curve and class table.
func (r *SurvivabilityResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Survivability audit: %s region, MaxFailures=%d plan\n", r.Region, r.MaxFailures)
	fmt.Fprintf(&b, "%-5s %-10s %-11s %-10s %s\n", "cuts", "scenarios", "admissible", "surviving", "worst-pair fibers")
	for i, p := range r.Curve {
		marker := ""
		if p.Cuts == r.MaxFailures+1 {
			marker = "  <- past tolerance"
		}
		fmt.Fprintf(&b, "%-5d %-10d %9.1f%% %9.1f%% %8.1f%s\n",
			p.Cuts, p.Scenarios, 100*p.FracAdmissible(), 100*p.FracSurviving(),
			r.WorstPairFibers[i], marker)
	}
	if len(r.Classes) > 0 {
		fmt.Fprintf(&b, "correlated classes:\n")
		fmt.Fprintf(&b, "%-5s %-10s %-11s %s\n", "kind", "scenarios", "admissible", "surviving")
		for _, c := range r.Classes {
			adm, surv := 0.0, 0.0
			if c.Scenarios > 0 {
				adm = 100 * float64(c.Admissible) / float64(c.Scenarios)
				surv = 100 * float64(c.Surviving) / float64(c.Scenarios)
			}
			fmt.Fprintf(&b, "%-5s %-10d %9.1f%% %9.1f%%\n", c.Kind, c.Scenarios, adm, surv)
		}
	}
	return b.String()
}
