// Package experiments regenerates every table and figure of the paper's
// evaluation. Each experiment is a pure function from a configuration to a
// structured result plus a formatter that prints the same rows/series the
// paper reports; cmd/irisbench drives them from the command line and
// the repository-root benchmarks time them.
//
// The per-experiment mapping to the paper is catalogued in DESIGN.md and
// the measured outcomes in EXPERIMENTS.md.
package experiments

import (
	"fmt"
	"strings"

	"iris/internal/cost"
	"iris/internal/fibermap"
	"iris/internal/geo"
	"iris/internal/latency"
	"iris/internal/optics"
	"iris/internal/siting"
	"iris/internal/stats"
)

// ---------------------------------------------------------------------------
// Fig. 2: the Tokyo latency example.

// Fig2 returns the paper's worked Tokyo-region example: hub placement
// south of two nearby DCs makes the hub path ≈6× longer than a direct
// fiber run.
func Fig2() latency.TokyoExample { return latency.Tokyo() }

// FormatFig2 renders the example the way §2.1 walks through it.
func FormatFig2(e latency.TokyoExample) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 2 — Tokyo example: DC-hub-DC vs. direct DC-DC\n")
	fmt.Fprintf(&b, "direct:  %.0f km fiber, %.1f ms RTT\n", e.DirectKM, e.DirectRTTms())
	fmt.Fprintf(&b, "via hub: %.0f km fiber, %.1f ms RTT\n", e.ViaHubKM, e.ViaHubRTTms())
	fmt.Fprintf(&b, "direct connectivity is a %.0fx latency reduction (paper: 6x)\n", e.Reduction())
	return b.String()
}

// ---------------------------------------------------------------------------
// Fig. 3: latency inflation of DC-hub-DC paths vs. direct DC-DC paths.

// Fig3Config parameterises the latency-inflation study.
type Fig3Config struct {
	Regions      int // the paper pools 22 regions
	DCsPerRegion int
	HubSpreadKM  float64
}

// DefaultFig3 matches the paper's scale.
func DefaultFig3() Fig3Config { return Fig3Config{Regions: 22, DCsPerRegion: 8, HubSpreadKM: 6} }

// Fig3Result holds the pooled inflation distribution.
type Fig3Result struct {
	Inflations   []float64
	FracImproved float64 // fraction of pairs with any latency benefit
	FracOver2x   float64 // fraction with >2× benefit (the paper: >20%)
}

// Fig3 runs the study over synthetic regions.
func Fig3(cfg Fig3Config) (Fig3Result, error) {
	var pool []float64
	for seed := int64(0); seed < int64(cfg.Regions); seed++ {
		m, err := fibermap.Placed(seed, seed*7+1, cfg.DCsPerRegion)
		if err != nil {
			return Fig3Result{}, fmt.Errorf("region %d: %w", seed, err)
		}
		h1, h2 := fibermap.ChooseHubs(m, cfg.HubSpreadKM)
		var dcPts []geo.Point
		for _, dc := range m.DCs() {
			dcPts = append(dcPts, m.Nodes[dc].Pos)
		}
		hubs := []geo.Point{m.Nodes[h1].Pos, m.Nodes[h2].Pos}
		pool = append(pool, latency.Inflations(dcPts, hubs)...)
	}
	return Fig3Result{
		Inflations:   pool,
		FracImproved: stats.FractionAbove(pool, 1.001),
		FracOver2x:   stats.FractionAbove(pool, 2),
	}, nil
}

// Format renders the CDF at the paper's x-axis points.
func (r Fig3Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 3 — Latency inflation CDF (DC-hub-DC / DC-DC), %d pairs pooled\n", len(r.Inflations))
	fmt.Fprintf(&b, "%-12s %s\n", "inflation", "CDF")
	for _, x := range []float64{1, 2, 4, 8, 16, 32} {
		fmt.Fprintf(&b, "%-12.0fx %.3f\n", x, stats.CDFAt(r.Inflations, x))
	}
	fmt.Fprintf(&b, "pairs with any benefit: %.0f%% (paper: ≥60%%)\n", r.FracImproved*100)
	fmt.Fprintf(&b, "pairs with >2x benefit: %.0f%% (paper: >20%%)\n", r.FracOver2x*100)
	return b.String()
}

// ---------------------------------------------------------------------------
// Fig. 6: siting-area increase of the distributed model.

// Fig6Config parameterises the siting study.
type Fig6Config struct {
	Regions     int // the paper covers 33 regions
	MinDCs      int // region sizes span 5–15 existing DCs
	MaxDCs      int
	HubSpreadKM float64
	GridCellKM  float64
}

// DefaultFig6 matches the paper's scale.
func DefaultFig6() Fig6Config {
	return Fig6Config{Regions: 33, MinDCs: 5, MaxDCs: 15, HubSpreadKM: 6, GridCellKM: 2}
}

// Fig6Result holds the per-region area-increase ratios.
type Fig6Result struct {
	Ratios []float64
}

// Fig6 runs the study.
func Fig6(cfg Fig6Config) (Fig6Result, error) {
	var ratios []float64
	span := cfg.MaxDCs - cfg.MinDCs + 1
	for seed := int64(0); seed < int64(cfg.Regions); seed++ {
		n := cfg.MinDCs + int(seed)%span
		m, err := fibermap.Placed(seed, seed+50, n)
		if err != nil {
			return Fig6Result{}, fmt.Errorf("region %d: %w", seed, err)
		}
		a := siting.DefaultAnalysis(m)
		a.GridCellKM = cfg.GridCellKM
		h1, h2 := fibermap.ChooseHubs(m, cfg.HubSpreadKM)
		r, err := a.AreaIncrease(h1, h2, m.DCs())
		if err != nil {
			return Fig6Result{}, fmt.Errorf("region %d: %w", seed, err)
		}
		ratios = append(ratios, r)
	}
	return Fig6Result{Ratios: ratios}, nil
}

// Format renders one bar per region as in the paper's figure.
func (r Fig6Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 6 — X-fold siting-area increase, distributed vs. centralized\n")
	fmt.Fprintf(&b, "%-8s %s\n", "region", "increase")
	for i, ratio := range r.Ratios {
		fmt.Fprintf(&b, "%-8d %.2fx\n", i+1, ratio)
	}
	fmt.Fprintf(&b, "median %.2fx  min %.2fx  max %.2fx (paper: 2-5x)\n",
		stats.Median(r.Ratios), -stats.Max(negate(r.Ratios)), stats.Max(r.Ratios))
	return b.String()
}

func negate(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = -x
	}
	return out
}

// ---------------------------------------------------------------------------
// Fig. 7: §2.4 group-model port cost as topologies become distributed.

// Fig7Row is one group count's relative costs, normalised to the
// centralized electrical design.
type Fig7Row struct {
	Groups       int
	Electrical   float64
	ElectricalSR float64
	Optical      float64
	TotalPorts   int
}

// Fig7 evaluates the model for the paper's 16-DC example region.
func Fig7() []Fig7Row {
	const n, p = 16, 32
	c := cost.Default()
	base := (cost.PortModel{N: n, P: p, G: 1}).ElectricalCost(c, false)
	var rows []Fig7Row
	for _, g := range []int{1, 2, 4, 8, 16} {
		pm := cost.PortModel{N: n, P: p, G: g}
		rows = append(rows, Fig7Row{
			Groups:       g,
			Electrical:   pm.ElectricalCost(c, false) / base,
			ElectricalSR: pm.ElectricalCost(c, true) / base,
			Optical:      pm.OpticalCost(c) / base,
			TotalPorts:   pm.TotalPorts(),
		})
	}
	return rows
}

// FormatFig7 renders the rows.
func FormatFig7(rows []Fig7Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 7 — Relative port cost, 16 DCs (1 = centralized electrical)\n")
	fmt.Fprintf(&b, "%-8s %-12s %-16s %-12s %s\n", "groups", "electrical", "electrical+SR", "optical", "ports")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8d %-12.2f %-16.2f %-12.2f %d\n",
			r.Groups, r.Electrical, r.ElectricalSR, r.Optical, r.TotalPorts)
	}
	last := rows[len(rows)-1]
	fmt.Fprintf(&b, "fully distributed electrical: %.1fx centralized (paper: ≈7x)\n", last.Electrical)
	return b.String()
}

// ---------------------------------------------------------------------------
// Fig. 9: OSNR penalty vs. amplifier count.

// Fig9Row is one cascade length's penalty.
type Fig9Row struct {
	Amps      int
	PenaltyDB float64
}

// Fig9 evaluates the measured-model penalty for 1..8 amplifiers.
func Fig9() []Fig9Row {
	var rows []Fig9Row
	for n := 1; n <= 8; n++ {
		rows = append(rows, Fig9Row{Amps: n, PenaltyDB: optics.OSNRPenaltyDB(n)})
	}
	return rows
}

// FormatFig9 renders the series.
func FormatFig9(rows []Fig9Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 9 — OSNR penalty vs. on-path amplifiers\n")
	fmt.Fprintf(&b, "%-8s %s\n", "amps", "penalty (dB)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8d %.2f\n", r.Amps, r.PenaltyDB)
	}
	fmt.Fprintf(&b, "max amps within the %.0f dB budget: %d (paper: 3)\n",
		optics.OSNRPenaltyBudgetDB, optics.MaxAmpsWithinPenalty(optics.OSNRPenaltyBudgetDB))
	return b.String()
}
