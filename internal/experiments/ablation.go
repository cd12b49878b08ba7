package experiments

import (
	"fmt"
	"strings"

	"iris/internal/clos"
	"iris/internal/cost"
	"iris/internal/fibermap"
	"iris/internal/hose"
	"iris/internal/plan"
	"iris/internal/stats"
	"iris/internal/wave"
)

// ---------------------------------------------------------------------------
// Ablation: the Clos internal-port tax of EPS hubs.
//
// The Fig. 12 cost model prices one electrical port per transceiver. A
// non-blocking hub "big switch" (§2.3) additionally needs fabric-internal
// ports once its port count exceeds one switch's radix (§4.2). This
// ablation quantifies how much that understates EPS cost.

// ClosConfig parameterises the ablation.
type ClosConfig struct {
	MapSeeds []int64
	Ns       []int
	F        int
	Lambda   int
	Radix    int // switch radix, e.g. 32 ports
}

// DefaultClos returns the ablation configuration.
func DefaultClos() ClosConfig {
	return ClosConfig{MapSeeds: []int64{0, 1, 2}, Ns: []int{5, 10, 15}, F: 16, Lambda: 40, Radix: 32}
}

// ClosRow is one scenario's fabric-aware EPS accounting.
type ClosRow struct {
	Scenario
	// HutPorts is the transceiver-facing port count summed over huts.
	HutPorts int
	// InternalPorts is the Clos fabric-internal ports those huts need.
	InternalPorts int
	// CostIncreaseFrac is the EPS cost growth when internal ports are
	// priced at the electrical port price.
	CostIncreaseFrac float64
}

// ClosAblation sizes a non-blocking Clos fabric for every hut of every
// planned region and reports the internal-port overhead the flat port
// model omits.
func ClosAblation(cfg ClosConfig) ([]ClosRow, error) {
	prices := cost.Default()
	var rows []ClosRow
	planner := plan.NewPlanner() // reused arena; rows only read pl within the iteration
	for _, seed := range cfg.MapSeeds {
		for _, n := range cfg.Ns {
			gcfg := fibermap.DefaultGen()
			gcfg.Seed = seed
			m := fibermap.Generate(gcfg)
			pcfg := fibermap.DefaultPlace()
			pcfg.Seed, pcfg.N = seed*31+int64(n), n
			dcs, err := fibermap.PlaceDCs(m, pcfg)
			if err != nil {
				return nil, fmt.Errorf("map %d n=%d: %w", seed, n, err)
			}
			caps := make(map[int]int, len(dcs))
			for _, dc := range dcs {
				caps[dc] = cfg.F
			}
			pl, err := planner.Plan(plan.Input{Map: m, Capacity: caps, Lambda: cfg.Lambda})
			if err != nil {
				return nil, err
			}

			// Transceiver-facing ports per hut: base fiber ends × λ.
			hutPorts := make(map[int]int)
			for id, du := range pl.Ducts {
				d := m.Ducts[id]
				for _, end := range []int{d.A, d.B} {
					if m.Nodes[end].Kind == fibermap.Hut {
						hutPorts[end] += du.BasePairs * cfg.Lambda
					}
				}
			}
			row := ClosRow{Scenario: Scenario{MapSeed: seed, N: n, F: cfg.F, Lambda: cfg.Lambda}}
			for _, ports := range hutPorts {
				if ports == 0 {
					continue
				}
				d, err := clos.Size(ports, cfg.Radix, 1)
				if err != nil {
					return nil, fmt.Errorf("map %d n=%d: hut with %d ports: %w", seed, n, ports, err)
				}
				row.HutPorts += ports
				row.InternalPorts += d.InternalPorts
			}
			eps := cost.EPS(pl, prices)
			extra := float64(row.InternalPorts) * prices.ElectricalPort
			row.CostIncreaseFrac = extra / eps.Total()
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// FormatClos renders the ablation.
func FormatClos(rows []ClosRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation — Clos internal-port tax of EPS hut fabrics (non-blocking, radix 32)\n")
	fmt.Fprintf(&b, "%-6s %-4s %-12s %-16s %s\n", "map", "n", "hut ports", "internal ports", "EPS cost increase")
	var fracs []float64
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6d %-4d %-12d %-16d +%.1f%%\n",
			r.MapSeed, r.N, r.HutPorts, r.InternalPorts, r.CostIncreaseFrac*100)
		fracs = append(fracs, r.CostIncreaseFrac)
	}
	fmt.Fprintf(&b, "median EPS cost increase +%.1f%% — the flat port model of Fig. 12 understates EPS;\n",
		stats.Median(fracs)*100)
	fmt.Fprintf(&b, "Iris needs no hub fabric at all, so its advantage only grows\n")
	return b.String()
}

// ---------------------------------------------------------------------------
// Ablation: pure wavelength switching (Appendix B).
//
// A design that switches at wavelength granularity needs an OXC at every
// switching point, but TC4 admits at most one OXC per path; and it must
// solve a wavelength-assignment coloring problem. This ablation measures
// both on planned regions.

// WSSConfig parameterises the pure-wavelength-switching analysis.
type WSSConfig struct {
	MapSeeds []int64
	Ns       []int
	F        int
	Lambda   int
}

// DefaultWSS returns the analysis configuration.
func DefaultWSS() WSSConfig {
	return WSSConfig{MapSeeds: []int64{0, 1, 2}, Ns: []int{5, 10, 15}, F: 16, Lambda: 40}
}

// WSSRow is one region's feasibility picture.
type WSSRow struct {
	Scenario
	// FracNeedsMultiOXC is the fraction of DC-pair paths with more than
	// one intermediate switching point — infeasible with OXCs under TC4.
	FracNeedsMultiOXC float64
	// Colors is the wavelength count a greedy assignment needs for one
	// lightpath per DC pair; Lambda bounds what a fiber offers.
	Colors int
}

// WSSAblation evaluates the pure wavelength-switched design's obstacles.
func WSSAblation(cfg WSSConfig) ([]WSSRow, error) {
	var rows []WSSRow
	planner := plan.NewPlanner() // reused arena; rows only read pl within the iteration
	for _, seed := range cfg.MapSeeds {
		for _, n := range cfg.Ns {
			gcfg := fibermap.DefaultGen()
			gcfg.Seed = seed
			m := fibermap.Generate(gcfg)
			pcfg := fibermap.DefaultPlace()
			pcfg.Seed, pcfg.N = seed*31+int64(n), n
			dcs, err := fibermap.PlaceDCs(m, pcfg)
			if err != nil {
				return nil, fmt.Errorf("map %d n=%d: %w", seed, n, err)
			}
			caps := make(map[int]int, len(dcs))
			for _, dc := range dcs {
				caps[dc] = cfg.F
			}
			pl, err := planner.Plan(plan.Input{Map: m, Capacity: caps, Lambda: cfg.Lambda})
			if err != nil {
				return nil, err
			}

			// Lightpaths are numbered in pair order: the greedy colouring
			// depends on it, and map order would change it run to run.
			pairs := make([]hose.Pair, 0, len(pl.Paths))
			for p := range pl.Paths {
				pairs = append(pairs, p)
			}
			hose.SortPairs(pairs)
			multi, total := 0, 0
			var paths []wave.Lightpath
			for _, p := range pairs {
				info := pl.Paths[p]
				total++
				if len(info.Nodes) > 3 { // more than one intermediate node
					multi++
				}
				paths = append(paths, wave.Lightpath{ID: total, Links: info.Ducts})
			}
			colors, used := wave.ColorLightpaths(paths)
			if !wave.ValidColoring(paths, colors) {
				return nil, fmt.Errorf("map %d n=%d: invalid coloring", seed, n)
			}
			rows = append(rows, WSSRow{
				Scenario:          Scenario{MapSeed: seed, N: n, F: cfg.F, Lambda: cfg.Lambda},
				FracNeedsMultiOXC: float64(multi) / float64(total),
				Colors:            used,
			})
		}
	}
	return rows, nil
}

// FormatWSS renders the analysis.
func FormatWSS(rows []WSSRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation — pure wavelength switching (Appendix B)\n")
	fmt.Fprintf(&b, "%-6s %-4s %-22s %s\n", "map", "n", "paths needing >1 OXC", "wavelengths (greedy coloring)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6d %-4d %-22.0f%% %d of λ=%d\n",
			r.MapSeed, r.N, r.FracNeedsMultiOXC*100, r.Colors, r.Lambda)
	}
	fmt.Fprintf(&b, "TC4 admits one OXC per path, so multi-hop paths cannot be wavelength-switched\n")
	fmt.Fprintf(&b, "at all — the paper's conclusion that fiber switching is the viable architecture\n")
	return b.String()
}
