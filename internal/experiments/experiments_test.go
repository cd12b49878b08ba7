package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"iris/internal/optics"
	"iris/internal/stats"
)

func TestFig3(t *testing.T) {
	cfg := DefaultFig3()
	cfg.Regions = 8 // smaller pool for test time; shape is stable
	res, err := Fig3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Inflations) < 8*20 {
		t.Fatalf("only %d pairs pooled", len(res.Inflations))
	}
	if res.FracImproved < 0.6 {
		t.Errorf("FracImproved = %.2f, paper reports ≥0.6", res.FracImproved)
	}
	if res.FracOver2x < 0.05 {
		t.Errorf("FracOver2x = %.2f, expected a meaningful tail", res.FracOver2x)
	}
	out := res.Format()
	for _, want := range []string{"Fig. 3", "1           x", "32"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format missing %q:\n%s", want, out)
		}
	}
}

func TestFig6(t *testing.T) {
	cfg := DefaultFig6()
	cfg.Regions = 5
	cfg.GridCellKM = 3 // coarser grid for test time
	res, err := Fig6(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Ratios) != 5 {
		t.Fatalf("ratios = %v", res.Ratios)
	}
	for i, r := range res.Ratios {
		if r < 1 {
			t.Errorf("region %d ratio %.2f below 1", i, r)
		}
	}
	if med := stats.Median(res.Ratios); med < 1.3 {
		t.Errorf("median ratio %.2f; paper reports 2-5x", med)
	}
	if !strings.Contains(res.Format(), "Fig. 6") {
		t.Error("Format missing header")
	}
}

func TestFig7(t *testing.T) {
	rows := Fig7()
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Groups != 1 || math.Abs(rows[0].Electrical-1) > 1e-9 {
		t.Errorf("centralized row not normalised: %+v", rows[0])
	}
	last := rows[len(rows)-1]
	if last.Groups != 16 {
		t.Fatalf("last row = %+v", last)
	}
	if last.Electrical < 6 || last.Electrical > 9 {
		t.Errorf("distributed electrical = %.1fx, paper ≈7x", last.Electrical)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Electrical <= rows[i-1].Electrical {
			t.Errorf("electrical cost not increasing at G=%d", rows[i].Groups)
		}
		if rows[i].Optical >= rows[i].Electrical {
			t.Errorf("optical should undercut electrical at G=%d", rows[i].Groups)
		}
	}
	if !strings.Contains(FormatFig7(rows), "Fig. 7") {
		t.Error("Format missing header")
	}
}

func TestFig9(t *testing.T) {
	rows := Fig9()
	if len(rows) != 8 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].PenaltyDB != 4.5 || rows[7].PenaltyDB != 13.5 {
		t.Errorf("endpoints = %.1f, %.1f; want 4.5, 13.5", rows[0].PenaltyDB, rows[7].PenaltyDB)
	}
	if !strings.Contains(FormatFig9(rows), "3") {
		t.Error("Format should state the 3-amp budget")
	}
}

func TestToy(t *testing.T) {
	res, err := Toy()
	if err != nil {
		t.Fatal(err)
	}
	if res.Ratio < 2.5 || res.Ratio > 2.9 {
		t.Errorf("ratio = %.2f, paper: 2.7", res.Ratio)
	}
	out := res.Format()
	if !strings.Contains(out, "4800") || !strings.Contains(out, "1600") {
		t.Errorf("Format missing transceiver counts:\n%s", out)
	}
}

func TestSweepQuick(t *testing.T) {
	rows, err := Sweep(QuickSweep())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3*2*2*2 {
		t.Fatalf("rows = %d, want 24", len(rows))
	}
	r := ExtractRatios(rows)

	// Fig. 12(a) shape: Iris is always cheaper than EPS, usually much
	// cheaper; in-network ratios are larger still.
	for i, x := range r.EPSOverIris {
		if x < 1 {
			t.Errorf("scenario %d: EPS cheaper than Iris (%.2f)", i, x)
		}
	}
	if med := stats.Median(r.EPSOverIris); med < 2 {
		t.Errorf("median EPS/Iris = %.2f; paper reports ≥5x in 80%% of scenarios", med)
	}
	for i := range r.EPSOverIrisInNet {
		if r.EPSOverIrisInNet[i] < r.EPSOverIris[i] {
			t.Errorf("scenario %d: in-network ratio %.2f below total ratio %.2f",
				i, r.EPSOverIrisInNet[i], r.EPSOverIris[i])
		}
	}
	// Fig. 12(b): Iris keeps an advantage even at SR transceiver prices.
	if med := stats.Median(r.SROverIris); med < 1 {
		t.Errorf("median SR-priced EPS/Iris = %.2f, want ≥1", med)
	}
	// Fig. 12(c): EPS needs far more in-network ports per DC port.
	for i := range r.PortRatioEPS {
		if r.PortRatioEPS[i] <= r.PortRatioIris[i] {
			t.Errorf("scenario %d: EPS port ratio %.2f not above Iris %.2f",
				i, r.PortRatioEPS[i], r.PortRatioIris[i])
		}
	}
	// Hybrid ≈ Iris (slightly cheaper).
	for i := range r.EPSOverHybrid {
		lo, hi := r.EPSOverIris[i]*0.95, r.EPSOverIris[i]*1.3
		if r.EPSOverHybrid[i] < lo || r.EPSOverHybrid[i] > hi {
			t.Errorf("scenario %d: EPS/hybrid %.2f far from EPS/Iris %.2f",
				i, r.EPSOverHybrid[i], r.EPSOverIris[i])
		}
	}
	// Appendix A: overheads are a small share of cost.
	if mean := stats.Mean(r.Overheads); mean > 0.15 {
		t.Errorf("mean amplifier/cut-through overhead %.0f%%, paper: ≈3%%", mean*100)
	}

	out := FormatFig12(r)
	for _, want := range []string{"Fig. 12(a)", "Fig. 12(b)", "Fig. 12(c)", "Fig. 12(d)"} {
		if !strings.Contains(out, want) {
			t.Errorf("FormatFig12 missing %q", want)
		}
	}
	if !strings.Contains(FormatAppendixA(r), "Appendix A") {
		t.Error("FormatAppendixA missing header")
	}
}

func TestSweepDeterministic(t *testing.T) {
	cfg := SweepConfig{MapSeeds: []int64{1}, Ns: []int{5}, Fs: []int{8}, Lambdas: []int{40}, MaxFailures: 0}
	a, err := Sweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Sweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a[0].Iris.Total() != b[0].Iris.Total() || a[0].EPS.Total() != b[0].EPS.Total() {
		t.Error("sweep not deterministic")
	}
}

func TestFig14(t *testing.T) {
	cfg := DefaultFig14()
	cfg.DurationS = 180
	res, err := Fig14(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxBER >= optics.SoftFECBERThreshold {
		t.Errorf("max BER %v at or above FEC threshold", res.MaxBER)
	}
	if res.OutageMS <= 0 {
		t.Error("expected reconfiguration outages")
	}
	if !strings.Contains(res.Format(), "Fig. 14") {
		t.Error("Format missing header")
	}
}

func TestFig17Quick(t *testing.T) {
	cfg := Fig17Config{
		Seed:      1,
		Utils:     []float64{0.4},
		Bounds:    []float64{0.5},
		Intervals: []float64{5, 30},
		DurationS: 30,
		Dist:      DefaultFig17().Dist,
	}
	points, err := Fig17(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points = %d", len(points))
	}
	for _, p := range points {
		if math.IsNaN(p.All) || p.All < 0.9 || p.All > 1.5 {
			t.Errorf("slowdown %v at interval %v outside sane band", p.All, p.IntervalS)
		}
	}
	if !strings.Contains(FormatFig17(points), "Fig. 17") {
		t.Error("Format missing header")
	}
}

func TestFig18Quick(t *testing.T) {
	cfg := DefaultFig18()
	cfg.DurationS = 20
	points, err := Fig18(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 {
		t.Fatalf("points = %d", len(points))
	}
	names := map[string]bool{}
	for _, p := range points {
		names[p.Workload] = true
		if math.IsNaN(p.All) {
			t.Errorf("%s: NaN slowdown", p.Workload)
		}
		// Paper: <2% slowdown; allow simulation noise headroom.
		if p.All > 1.2 {
			t.Errorf("%s: slowdown %.3f far above the paper's <1.02", p.Workload, p.All)
		}
	}
	for _, want := range []string{"web1", "web2", "hadoop", "cache"} {
		if !names[want] {
			t.Errorf("missing workload %s", want)
		}
	}
	if !strings.Contains(FormatFig18(points), "Fig. 18") {
		t.Error("Format missing header")
	}
}

// residualMerge applies the Appendix B construction to one DC's demands:
// given per-destination demands in wavelengths (each at most λ — anything
// larger rides base capacity by definition), the largest ⌊D/λ⌋ demands are
// served by base-capacity fibers and the rest become residual traffic,
// which wavelength switching can compress into ⌈residual/λ⌉ fibers.
//
// Observation 2 of the paper: the residual of n destinations never exceeds
// λ·n/4 when the base split is exact, so the merged fiber count is at most
// ⌈n/4⌉ (one extra fiber of slack appears when D is not a multiple of λ).
func residualMerge(demands []int, lambda int) (baseFibers, residualWavelengths, mergedFibers int) {
	if lambda <= 0 {
		panic("experiments: lambda must be positive")
	}
	sorted := append([]int(nil), demands...)
	sort.Sort(sort.Reverse(sort.IntSlice(sorted)))
	total := 0
	for _, d := range sorted {
		if d < 0 || d > lambda {
			panic(fmt.Sprintf("experiments: demand %d outside [0,λ=%d]", d, lambda))
		}
		total += d
	}
	baseFibers = total / lambda
	if baseFibers > len(sorted) {
		baseFibers = len(sorted)
	}
	for _, d := range sorted[baseFibers:] {
		residualWavelengths += d
	}
	mergedFibers = (residualWavelengths + lambda - 1) / lambda
	return baseFibers, residualWavelengths, mergedFibers
}

func TestResidualMergeObservation2(t *testing.T) {
	// Property (Appendix B, Observation 2): with an exact base split, any
	// n residual fibers from one source compress into at most ⌈n/4⌉
	// fibers; inexact splits cost at most one extra.
	rng := rand.New(rand.NewSource(3))
	const lambda = 40
	for trial := 0; trial < 2000; trial++ {
		n := 2 + rng.Intn(19)
		demands := make([]int, n)
		for i := range demands {
			demands[i] = rng.Intn(lambda + 1)
		}
		_, residual, merged := residualMerge(demands, lambda)
		bound := (n + 3) / 4
		total := 0
		for _, d := range demands {
			total += d
		}
		if total%lambda == 0 {
			if merged > bound {
				t.Fatalf("trial %d: n=%d demands=%v merged=%d > ⌈n/4⌉=%d",
					trial, n, demands, merged, bound)
			}
		} else if merged > bound+1 {
			t.Fatalf("trial %d: n=%d merged=%d > ⌈n/4⌉+1=%d", trial, n, merged, bound+1)
		}
		if residual > lambda*n/4+lambda {
			t.Fatalf("trial %d: residual %d exceeds λn/4+λ", trial, residual)
		}
	}
}

func TestResidualMergeValidation(t *testing.T) {
	for name, fn := range map[string]func(){
		"bad lambda":     func() { residualMerge([]int{1}, 0) },
		"demand too big": func() { residualMerge([]int{41}, 40) },
		"negative":       func() { residualMerge([]int{-1}, 40) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		})
	}
}

func TestAppendixBFromSweep(t *testing.T) {
	rows, err := Sweep(SweepConfig{MapSeeds: []int64{0, 1}, Ns: []int{5, 10}, Fs: []int{8}, Lambdas: []int{40}, MaxFailures: 0})
	if err != nil {
		t.Fatal(err)
	}
	res := AppendixB(rows)
	if len(res.FiberSavedFrac) == 0 || len(res.CostSavedFrac) == 0 {
		t.Fatal("empty results")
	}
	for i, f := range res.FiberSavedFrac {
		if f < 0 || f > 1 {
			t.Errorf("scenario %d: fiber saving %v outside [0,1]", i, f)
		}
	}
	for i, c := range res.CostSavedFrac {
		if c < 0 || c > 0.2 {
			t.Errorf("scenario %d: cost saving %v; paper says small", i, c)
		}
	}
	if !strings.Contains(res.Format(), "Appendix B") {
		t.Error("Format missing header")
	}
}

func TestFig17Region(t *testing.T) {
	cfg := DefaultFig17Region()
	cfg.Utils = []float64{0.4}
	cfg.Intervals = []float64{5}
	cfg.DurationS = 25
	points, err := Fig17Region(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 1 {
		t.Fatalf("points = %d", len(points))
	}
	if math.IsNaN(points[0].All) || points[0].All < 0.9 || points[0].All > 1.5 {
		t.Errorf("region slowdown %v outside sane band", points[0].All)
	}
	if !strings.Contains(FormatFig17Region(points), "region-grounded") {
		t.Error("Format missing header")
	}
}
