package plan

import (
	"testing"

	"iris/internal/fibermap"
	"iris/internal/hose"
)

func TestViaHubsValidation(t *testing.T) {
	in, r := toyInput(0)
	in.ViaHubs = []int{99}
	if err := in.validate(); err == nil {
		t.Error("expected error for out-of-range hub")
	}
	in.ViaHubs = []int{r.DC1}
	if err := in.validate(); err == nil {
		t.Error("expected error for a DC as hub")
	}
	in.ViaHubs = []int{r.HubA, r.HubB}
	if err := in.validate(); err != nil {
		t.Errorf("valid hubs rejected: %v", err)
	}
}

func TestCentralizedToyRouting(t *testing.T) {
	in, r := toyInput(0)
	in.ViaHubs = []int{r.HubA}
	pl, err := New(in)
	if err != nil {
		t.Fatal(err)
	}
	// DC3-DC4 share hub B directly (18+18=36 km), but the centralized
	// design must route them via hub A: 18+40 out and back = 116 km.
	info := pl.Paths[hose.Pair{A: r.DC3, B: r.DC4}]
	if info == nil {
		t.Fatal("no DC3-DC4 path")
	}
	if info.TotalKM != 116 {
		t.Errorf("DC3-DC4 via hub A = %.0f km, want 116", info.TotalKM)
	}
	// The path must pass through hub A.
	viaHub := false
	for _, n := range info.Nodes {
		if n == r.HubA {
			viaHub = true
		}
	}
	if !viaHub {
		t.Errorf("path %v does not traverse hub A", info.Nodes)
	}
}

func TestCentralizedVsDistributedOnToy(t *testing.T) {
	in, r := toyInput(0)
	dist, err := New(in)
	if err != nil {
		t.Fatal(err)
	}
	in.ViaHubs = []int{r.HubA, r.HubB}
	cent, err := New(in)
	if err != nil {
		t.Fatal(err)
	}
	// With both hubs usable, each pair picks the nearer hub; same-side
	// pairs (DC1-DC2) route via their hub as in the distributed design,
	// so the toy's centralized fiber count matches. Path lengths can only
	// be ≥ the distributed ones.
	for pair, ci := range cent.Paths {
		di := dist.Paths[pair]
		if di == nil {
			t.Fatalf("pair %v missing from distributed plan", pair)
		}
		if ci.TotalKM+1e-9 < di.TotalKM {
			t.Errorf("pair %v: centralized %.1f km shorter than distributed %.1f km",
				pair, ci.TotalKM, di.TotalKM)
		}
	}
}

func TestCentralizedOnGeneratedRegion(t *testing.T) {
	m, err := fibermap.Spec{Seed: 6, DCs: 6}.Map()
	if err != nil {
		t.Fatal(err)
	}
	dcs := m.DCs()
	caps := make(map[int]int)
	for _, dc := range dcs {
		caps[dc] = 8
	}
	h1, h2 := fibermap.ChooseHubs(m, 6)
	cent, err := New(Input{
		Map: m, Capacity: caps, Lambda: 40, ViaHubs: []int{h1, h2},
	})
	if err != nil {
		t.Fatal(err)
	}
	dist, err := New(Input{Map: m, Capacity: caps, Lambda: 40})
	if err != nil {
		t.Fatal(err)
	}
	if len(cent.Paths) != len(dist.Paths) {
		t.Fatalf("path counts differ: %d vs %d", len(cent.Paths), len(dist.Paths))
	}
	longer, total := 0, 0
	for pair, ci := range cent.Paths {
		di := dist.Paths[pair]
		total++
		if ci.TotalKM > di.TotalKM+1e-9 {
			longer++
		}
		if ci.TotalKM+1e-9 < di.TotalKM {
			t.Errorf("pair %v: hub path %.1f shorter than shortest path %.1f",
				pair, ci.TotalKM, di.TotalKM)
		}
	}
	// §2.1: hub routing inflates latency for a substantial share of pairs.
	if longer*2 < total {
		t.Errorf("only %d/%d pairs longer via hubs; expected a majority", longer, total)
	}
	// All centralized paths still pass the optical constraints.
	for pair := range cent.Paths {
		ev, _ := evaluatePath(cent, pair)
		if !ev.Feasible() {
			t.Errorf("pair %v infeasible in centralized plan: %v", pair, ev.Violations)
		}
	}
	if len(cent.Viol) != 0 {
		t.Errorf("violations: %v", cent.Viol)
	}
}
