package siting

import (
	"testing"

	"iris/internal/fibermap"
)

func region(t *testing.T, seed int64, nDCs int) (*fibermap.Map, []int) {
	t.Helper()
	m, err := fibermap.Placed(seed, seed+50, nDCs)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	return m, m.DCs()
}

func TestCentralizedAreaErrors(t *testing.T) {
	m, _ := region(t, 1, 2)
	a := DefaultAnalysis(m)
	if _, err := a.CentralizedArea(); err == nil {
		t.Error("expected error for no hubs")
	}
}

func TestDistributedAreaErrors(t *testing.T) {
	m, _ := region(t, 1, 2)
	a := DefaultAnalysis(m)
	if _, err := a.DistributedArea(-1); err == nil {
		t.Error("expected error for bad node")
	}
}

func TestAreasPositiveAndOrdered(t *testing.T) {
	m, dcs := region(t, 2, 6)
	a := DefaultAnalysis(m)
	h1, h2 := fibermap.ChooseHubs(m, 6)

	ca, err := a.CentralizedArea(h1, h2)
	if err != nil {
		t.Fatal(err)
	}
	da, err := a.DistributedArea(dcs...)
	if err != nil {
		t.Fatal(err)
	}
	if ca <= 0 || da <= 0 {
		t.Fatalf("areas must be positive: centralized %v, distributed %v", ca, da)
	}
	// §2.2: the distributed model always offers at least the centralized
	// area on these regions (DCs were placed within reach of each other).
	if da < ca {
		t.Errorf("distributed area %v below centralized %v", da, ca)
	}
}

func TestCentralizedShrinksWithHubSpread(t *testing.T) {
	// Fig. 4/5: hubs placed farther apart shrink the centralized service
	// area (the intersection of their reach disks).
	m, _ := region(t, 3, 4)
	a := DefaultAnalysis(m)
	near1, near2 := fibermap.ChooseHubs(m, 4)
	far1, far2 := fibermap.ChooseHubs(m, 24)
	nearArea, err := a.CentralizedArea(near1, near2)
	if err != nil {
		t.Fatal(err)
	}
	farArea, err := a.CentralizedArea(far1, far2)
	if err != nil {
		t.Fatal(err)
	}
	if farArea > nearArea {
		t.Errorf("far-hub area %v exceeds near-hub area %v", farArea, nearArea)
	}
}

func TestDistributedShrinksWithMoreDCs(t *testing.T) {
	// Each additional DC constrains future sites (§2.2).
	m, dcs := region(t, 4, 8)
	a := DefaultAnalysis(m)
	few, err := a.DistributedArea(dcs[:2]...)
	if err != nil {
		t.Fatal(err)
	}
	many, err := a.DistributedArea(dcs...)
	if err != nil {
		t.Fatal(err)
	}
	if many > few {
		t.Errorf("8-DC area %v exceeds 2-DC area %v", many, few)
	}
}

func TestMonotoneInSLA(t *testing.T) {
	m, dcs := region(t, 5, 5)
	h1, h2 := fibermap.ChooseHubs(m, 6)
	loose := DefaultAnalysis(m)
	tight := DefaultAnalysis(m)
	tight.MaxFiberKM = 80

	la, err := loose.AreaIncrease(h1, h2, dcs)
	if err != nil {
		t.Fatal(err)
	}
	if la <= 0 {
		t.Fatalf("area increase = %v", la)
	}
	lc, _ := loose.CentralizedArea(h1, h2)
	tc, _ := tight.CentralizedArea(h1, h2)
	if tc > lc {
		t.Errorf("tighter SLA grew the centralized area: %v > %v", tc, lc)
	}
	ld, _ := loose.DistributedArea(dcs...)
	td, _ := tight.DistributedArea(dcs...)
	if td > ld {
		t.Errorf("tighter SLA grew the distributed area: %v > %v", td, ld)
	}
}

// TestFig6Shape reproduces the paper's headline siting claim: across
// regions, the distributed design multiplies the available siting area,
// typically by 2-5×.
func TestFig6Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-region sweep")
	}
	var ratios []float64
	for seed := int64(0); seed < 8; seed++ {
		m, dcs := region(t, seed, 5+int(seed)%6)
		a := DefaultAnalysis(m)
		h1, h2 := fibermap.ChooseHubs(m, 6)
		r, err := a.AreaIncrease(h1, h2, dcs)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		ratios = append(ratios, r)
	}
	for i, r := range ratios {
		t.Logf("region %d: area increase %.2f×", i, r)
		if r < 1 {
			t.Errorf("region %d: distributed area smaller than centralized (%.2f×)", i, r)
		}
	}
	// At least half the regions should see a ≥1.5× increase; the paper
	// reports 2-5× on Azure's fiber maps.
	above := 0
	for _, r := range ratios {
		if r >= 1.5 {
			above++
		}
	}
	if above*2 < len(ratios) {
		t.Errorf("only %d/%d regions see ≥1.5× increase", above, len(ratios))
	}
}
