package experiments

import (
	"reflect"
	"strings"
	"testing"
)

func TestClosAblation(t *testing.T) {
	cfg := ClosConfig{MapSeeds: []int64{0, 1}, Ns: []int{5, 10}, F: 16, Lambda: 40, Radix: 32}
	rows, err := ClosAblation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.HutPorts <= 0 {
			t.Errorf("map %d n=%d: no hut ports", r.MapSeed, r.N)
		}
		if r.InternalPorts <= 0 {
			t.Errorf("map %d n=%d: no internal ports despite DCI-scale hubs", r.MapSeed, r.N)
		}
		if r.CostIncreaseFrac <= 0 || r.CostIncreaseFrac > 0.5 {
			t.Errorf("map %d n=%d: cost increase %.2f out of band", r.MapSeed, r.N, r.CostIncreaseFrac)
		}
	}
	out := FormatClos(rows)
	if !strings.Contains(out, "Clos internal-port tax") {
		t.Error("Format missing header")
	}
}

func TestWSSAblation(t *testing.T) {
	cfg := WSSConfig{MapSeeds: []int64{0, 1}, Ns: []int{5, 10}, F: 16, Lambda: 40}
	rows, err := WSSAblation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	anyMulti := false
	for _, r := range rows {
		if r.FracNeedsMultiOXC < 0 || r.FracNeedsMultiOXC > 1 {
			t.Errorf("fraction %v out of range", r.FracNeedsMultiOXC)
		}
		if r.FracNeedsMultiOXC > 0 {
			anyMulti = true
		}
		if r.Colors <= 0 {
			t.Errorf("map %d n=%d: no wavelengths assigned", r.MapSeed, r.N)
		}
	}
	if !anyMulti {
		t.Error("expected at least one region with multi-OXC paths (the Appendix B obstacle)")
	}
	out := FormatWSS(rows)
	if !strings.Contains(out, "wavelength switching") {
		t.Error("Format missing header")
	}
}

// TestWSSAblationIsReproducible: the greedy colouring depends on the
// order lightpaths are numbered in, which is pair order, not map order —
// ten calls on one config give one answer (the wavelength counts used to
// differ between two runs of one binary).
func TestWSSAblationIsReproducible(t *testing.T) {
	cfg := DefaultWSS()
	first, err := WSSAblation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 10; i++ {
		rows, err := WSSAblation(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rows, first) {
			t.Fatalf("call %d:\n%+v\nthe first call:\n%+v", i, rows, first)
		}
	}
}
