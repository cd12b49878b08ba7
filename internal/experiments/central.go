package experiments

import (
	"fmt"
	"strings"

	"iris/internal/core"
	"iris/internal/cost"
	"iris/internal/fibermap"
	"iris/internal/plan"
	"iris/internal/stats"
)

// CentralConfig parameterises the centralized-vs-distributed comparison on
// real fiber maps (the map-level version of the paper's §2 analysis and
// its abstract summary: distributed designs win latency and siting but a
// packet-switched implementation of them costs ~7× hub-and-spoke, while
// Iris brings them to around hub-and-spoke cost).
type CentralConfig struct {
	MapSeeds    []int64
	N           int
	F           int
	Lambda      int
	HubSpreadKM float64
}

// DefaultCentral returns the comparison configuration.
func DefaultCentral() CentralConfig {
	return CentralConfig{MapSeeds: []int64{0, 1, 2, 3}, N: 8, F: 16, Lambda: 40, HubSpreadKM: 6}
}

// CentralRow is one region's comparison.
type CentralRow struct {
	MapSeed int64
	// MedianInflation is the median over DC pairs of (hub-routed fiber
	// path / shortest fiber path) — Fig. 3's metric measured on real
	// fiber routes instead of the geographic rule of thumb.
	MedianInflation float64
	// FracOver2x is the fraction of pairs whose hub path is >2× longer.
	FracOver2x float64
	// Annual costs of the four (routing × switching) combinations.
	EPSCentral, EPSDistributed   float64
	IrisCentral, IrisDistributed float64
}

// CentralVsDistributed plans every region twice (hub-and-spoke and
// shortest-path) and prices both under EPS and Iris.
func CentralVsDistributed(cfg CentralConfig) ([]CentralRow, error) {
	prices := cost.Default()
	var rows []CentralRow
	// Both plans are read while pricing a row, so each routing mode keeps
	// its own reusable arena.
	distPlanner := plan.NewPlanner()
	centPlanner := plan.NewPlanner()
	for _, seed := range cfg.MapSeeds {
		m, err := fibermap.Placed(seed, seed+9, cfg.N)
		if err != nil {
			return nil, fmt.Errorf("map %d: %w", seed, err)
		}
		caps := core.UniformRegion(m, cfg.F, cfg.Lambda).Capacity
		h1, h2 := fibermap.ChooseHubs(m, cfg.HubSpreadKM)

		dist, err := distPlanner.Plan(plan.Input{Map: m, Capacity: caps, Lambda: cfg.Lambda})
		if err != nil {
			return nil, fmt.Errorf("map %d distributed: %w", seed, err)
		}
		cent, err := centPlanner.Plan(plan.Input{
			Map: m, Capacity: caps, Lambda: cfg.Lambda, ViaHubs: []int{h1, h2},
		})
		if err != nil {
			return nil, fmt.Errorf("map %d centralized: %w", seed, err)
		}

		var inflations []float64
		for pair, di := range dist.Paths {
			if ci, ok := cent.Paths[pair]; ok && di.TotalKM > 0 {
				inflations = append(inflations, ci.TotalKM/di.TotalKM)
			}
		}
		rows = append(rows, CentralRow{
			MapSeed:         seed,
			MedianInflation: stats.Median(inflations),
			FracOver2x:      stats.FractionAbove(inflations, 2),
			EPSCentral:      cost.EPS(cent, prices).Total(),
			EPSDistributed:  cost.EPS(dist, prices).Total(),
			IrisCentral:     cost.Iris(cent, prices).Total(),
			IrisDistributed: cost.Iris(dist, prices).Total(),
		})
	}
	return rows, nil
}

// FormatCentral renders the comparison.
func FormatCentral(rows []CentralRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Centralized vs. distributed on the same fiber maps (§2, map-level)\n")
	fmt.Fprintf(&b, "%-6s %-12s %-10s %-12s %-12s %-12s %s\n",
		"map", "latency med", ">2x pairs", "EPS-central", "EPS-dist", "Iris-central", "Iris-dist ($M/yr)")
	var distOverCentral []float64
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6d %-12.2f %-10.0f%% %-12.1f %-12.1f %-12.1f %.1f\n",
			r.MapSeed, r.MedianInflation, r.FracOver2x*100,
			r.EPSCentral/1e6, r.EPSDistributed/1e6, r.IrisCentral/1e6, r.IrisDistributed/1e6)
		distOverCentral = append(distOverCentral, r.IrisDistributed/r.IrisCentral)
	}
	fmt.Fprintf(&b, "hub routing inflates the median DC-pair fiber path, and distributed Iris costs\n")
	fmt.Fprintf(&b, "%.2fx centralized Iris in the median (paper headline: distributed within 1.1x of\n",
		stats.Median(distOverCentral))
	fmt.Fprintf(&b, "hub-and-spoke once implemented optically)\n")
	return b.String()
}
