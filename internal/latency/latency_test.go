package latency

import (
	"math"
	"testing"

	"iris/internal/fibermap"
	"iris/internal/geo"
	"iris/internal/stats"
)

func TestRTTms(t *testing.T) {
	// 100 km of fiber: 1 ms round trip at 200 km/ms.
	if got := rttMS(100); got != 1 {
		t.Errorf("RTTms(100) = %v, want 1", got)
	}
	// The paper's Tokyo example: 19 km direct ≈ 0.2 ms RTT.
	if got := rttMS(19); math.Abs(got-0.19) > 1e-9 {
		t.Errorf("RTTms(19) = %v, want 0.19", got)
	}
}

func TestInflationGeometry(t *testing.T) {
	a := geo.Point{X: 0, Y: 0}
	b := geo.Point{X: 10, Y: 0}

	t.Run("hub on the segment has no inflation", func(t *testing.T) {
		got, err := inflation(a, b, []geo.Point{{X: 5, Y: 0}})
		if err != nil || math.Abs(got-1) > 1e-9 {
			t.Errorf("inflation = %v, %v; want 1", got, err)
		}
	})

	t.Run("detour through a distant hub", func(t *testing.T) {
		// Hub equidistant from both DCs at distance 13 (5-12-13 triangles).
		got, err := inflation(a, b, []geo.Point{{X: 5, Y: 12}})
		if err != nil {
			t.Fatal(err)
		}
		if want := 26.0 / 10.0; math.Abs(got-want) > 1e-9 {
			t.Errorf("inflation = %v, want %v", got, want)
		}
	})

	t.Run("best of two hubs wins", func(t *testing.T) {
		hubs := []geo.Point{{X: 5, Y: 12}, {X: 5, Y: 0}}
		got, err := inflation(a, b, hubs)
		if err != nil || math.Abs(got-1) > 1e-9 {
			t.Errorf("inflation = %v, %v; want 1 via the close hub", got, err)
		}
	})

	t.Run("errors", func(t *testing.T) {
		if _, err := inflation(a, b, nil); err == nil {
			t.Error("expected error for no hubs")
		}
		if _, err := inflation(a, a, []geo.Point{{X: 1}}); err == nil {
			t.Error("expected error for co-located DCs")
		}
	})
}

func TestInflationAtLeastOne(t *testing.T) {
	// Triangle inequality: going via any hub can never be shorter than
	// the direct path.
	pts := []geo.Point{{X: 0, Y: 0}, {X: 7, Y: 3}, {X: -2, Y: 9}, {X: 5, Y: -4}}
	hubs := []geo.Point{{X: 1, Y: 1}, {X: -3, Y: 2}}
	for _, infl := range Inflations(pts, hubs) {
		if infl < 1-1e-9 {
			t.Fatalf("inflation %v below 1", infl)
		}
	}
}

func TestInflationsSkipsColocated(t *testing.T) {
	pts := []geo.Point{{X: 0, Y: 0}, {X: 0, Y: 0}, {X: 5, Y: 5}}
	hubs := []geo.Point{{X: 1, Y: 1}}
	got := Inflations(pts, hubs)
	if len(got) != 2 { // pairs (0,2) and (1,2); (0,1) skipped
		t.Errorf("got %d inflations, want 2", len(got))
	}
}

// TestFig3Shape reproduces the paper's headline latency claim on synthetic
// regions: pooled across regions, a substantial fraction of DC pairs see
// >1× inflation via hubs, and a meaningful tail sees >2×.
func TestFig3Shape(t *testing.T) {
	var pool []float64
	for seed := int64(0); seed < 22; seed++ {
		gcfg := fibermap.DefaultGen()
		gcfg.Seed = seed
		m := fibermap.Generate(gcfg)
		pcfg := fibermap.DefaultPlace()
		pcfg.Seed, pcfg.N = seed*7+1, 8
		dcs, err := fibermap.PlaceDCs(m, pcfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		h1, h2 := fibermap.ChooseHubs(m, 6)
		var dcPts []geo.Point
		for _, dc := range dcs {
			dcPts = append(dcPts, m.Nodes[dc].Pos)
		}
		hubs := []geo.Point{m.Nodes[h1].Pos, m.Nodes[h2].Pos}
		pool = append(pool, Inflations(dcPts, hubs)...)
	}
	if len(pool) < 22*20 {
		t.Fatalf("only %d samples pooled", len(pool))
	}
	improved := stats.FractionAbove(pool, 1.001)
	doubled := stats.FractionAbove(pool, 2)
	t.Logf("Fig. 3 shape: %.0f%% of pairs improve, %.0f%% improve >2× (paper: ≥60%%, >20%%)",
		improved*100, doubled*100)
	if improved < 0.6 {
		t.Errorf("only %.0f%% of pairs see any latency benefit; paper reports ≥60%%", improved*100)
	}
	if doubled < 0.10 {
		t.Errorf("only %.0f%% of pairs see >2× benefit; paper reports >20%%", doubled*100)
	}
}
