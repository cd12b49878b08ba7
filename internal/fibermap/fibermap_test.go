package fibermap

import (
	"math"
	"testing"

	"iris/internal/geo"
)

func TestAddNodeAndDuct(t *testing.T) {
	m := &Map{}
	a := m.AddNode(Hut, geo.Point{X: 0, Y: 0}, "")
	b := m.AddNode(DC, geo.Point{X: 10, Y: 0}, "east")
	if a != 0 || b != 1 {
		t.Fatalf("IDs = %d, %d", a, b)
	}
	if m.Nodes[a].Name != "hut0" {
		t.Errorf("default name = %q", m.Nodes[a].Name)
	}
	if m.Nodes[b].Name != "east" {
		t.Errorf("explicit name = %q", m.Nodes[b].Name)
	}
	d := m.AddDuct(a, b, 14)
	if d != 0 || m.Ducts[0].FiberKM != 14 {
		t.Fatalf("duct = %+v", m.Ducts[0])
	}
}

func TestAddDuctValidation(t *testing.T) {
	m := &Map{}
	a := m.AddNode(Hut, geo.Point{}, "")
	b := m.AddNode(Hut, geo.Point{X: 1}, "")
	for name, fn := range map[string]func(){
		"self loop":       func() { m.AddDuct(a, a, 1) },
		"bad endpoint":    func() { m.AddDuct(a, 5, 1) },
		"zero length":     func() { m.AddDuct(a, b, 0) },
		"negative length": func() { m.AddDuct(a, b, -2) },
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

func TestDCsAndHuts(t *testing.T) {
	r := Toy()
	dcs := r.Map.DCs()
	huts := r.Map.Huts()
	if len(dcs) != 4 || len(huts) != 2 {
		t.Fatalf("DCs=%v Huts=%v", dcs, huts)
	}
}

func TestNodeKindString(t *testing.T) {
	if Hut.String() != "hut" || DC.String() != "dc" {
		t.Error("NodeKind strings wrong")
	}
	if NodeKind(9).String() != "NodeKind(9)" {
		t.Errorf("unknown kind = %q", NodeKind(9).String())
	}
}

// fiberDist is the shortest fiber distance in km between two nodes, +Inf
// if they are disconnected.
func fiberDist(m *Map, a, b int) float64 { return m.Graph().Dijkstra(a).Dist[b] }

func genConfig(seed int64) GenConfig {
	cfg := DefaultGen()
	cfg.Seed = seed
	return cfg
}

func placeConfig(seed int64, n int) PlaceConfig {
	cfg := DefaultPlace()
	cfg.Seed, cfg.N = seed, n
	return cfg
}

func TestToyDistances(t *testing.T) {
	r := Toy()
	// DC1-DC2 share hub A: 18+18 = 36 km.
	if d := fiberDist(r.Map, r.DC1, r.DC2); math.Abs(d-36) > 1e-9 {
		t.Errorf("DC1-DC2 = %v, want 36", d)
	}
	// DC1-DC3 cross the central duct: 18+40+18 = 76 km, within the SLA.
	if d := fiberDist(r.Map, r.DC1, r.DC3); math.Abs(d-76) > 1e-9 {
		t.Errorf("DC1-DC3 = %v, want 76", d)
	}
	if err := r.Map.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestCloneIsDeep(t *testing.T) {
	r := Toy()
	c := r.Map.Clone()
	c.AddNode(DC, geo.Point{X: 99, Y: 99}, "extra")
	c.AddDuct(0, 1, 5)
	if len(r.Map.Nodes) != 6 || len(r.Map.Ducts) != 5 {
		t.Error("Clone mutated the original map")
	}
}

func TestValidateDetectsDisconnection(t *testing.T) {
	m := &Map{}
	m.AddNode(Hut, geo.Point{}, "")
	m.AddNode(Hut, geo.Point{X: 1}, "")
	if err := m.Validate(); err == nil {
		t.Error("expected disconnection error")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(genConfig(3))
	b := Generate(genConfig(3))
	if len(a.Nodes) != len(b.Nodes) || len(a.Ducts) != len(b.Ducts) {
		t.Fatal("same seed produced different maps")
	}
	for i := range a.Ducts {
		if a.Ducts[i] != b.Ducts[i] {
			t.Fatalf("duct %d differs: %+v vs %+v", i, a.Ducts[i], b.Ducts[i])
		}
	}
	c := Generate(genConfig(4))
	same := len(a.Nodes) == len(c.Nodes)
	if same {
		same = false
		for i := range a.Nodes {
			if a.Nodes[i].Pos != c.Nodes[i].Pos {
				same = false
				break
			}
			same = true
		}
	}
	if same {
		t.Error("different seeds produced identical hut layouts")
	}
}

func TestGenerateStructure(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		m := Generate(genConfig(seed))
		if err := m.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(m.Huts()) < 10 {
			t.Fatalf("seed %d: only %d huts", seed, len(m.Huts()))
		}
		if len(m.DCs()) != 0 {
			t.Fatalf("seed %d: generator must not place DCs", seed)
		}
		// Fiber lengths exceed Euclidean distance (road factor ≥ 1.2).
		for _, d := range m.Ducts {
			euclid := m.Nodes[d.A].Pos.Dist(m.Nodes[d.B].Pos)
			if d.FiberKM < euclid {
				t.Fatalf("seed %d: duct %d fiber %.2f shorter than Euclidean %.2f",
					seed, d.ID, d.FiberKM, euclid)
			}
		}
	}
}

func TestPlaceDCs(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		m := Generate(genConfig(seed))
		dcs, err := PlaceDCs(m, placeConfig(seed+100, 8))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(dcs) != 8 {
			t.Fatalf("seed %d: placed %d DCs", seed, len(dcs))
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// SLA: every DC pair within 120 km of fiber.
		g := m.Graph()
		for i, a := range dcs {
			dist := g.Dijkstra(a).Dist
			for _, b := range dcs[i+1:] {
				if dist[b] > 120+1e-9 {
					t.Errorf("seed %d: DC pair %d-%d at %.1f km exceeds SLA", seed, a, b, dist[b])
				}
			}
		}
		// Each DC has exactly two access ducts.
		for _, dc := range dcs {
			n := 0
			for _, d := range m.Ducts {
				if d.A == dc || d.B == dc {
					n++
				}
			}
			if n != 2 {
				t.Errorf("seed %d: DC %d has %d access ducts, want 2", seed, dc, n)
			}
		}
	}
}

func TestPlaceDCsDeterministic(t *testing.T) {
	m1 := Generate(genConfig(9))
	m2 := Generate(genConfig(9))
	d1, err1 := PlaceDCs(m1, placeConfig(5, 6))
	d2, err2 := PlaceDCs(m2, placeConfig(5, 6))
	if err1 != nil || err2 != nil {
		t.Fatalf("errors: %v %v", err1, err2)
	}
	for i := range d1 {
		if m1.Nodes[d1[i]].Pos != m2.Nodes[d2[i]].Pos {
			t.Fatalf("DC %d placed differently across identical runs", i)
		}
	}
}

func TestPlaceDCsZero(t *testing.T) {
	m := Generate(genConfig(1))
	dcs, err := PlaceDCs(m, placeConfig(1, 0))
	if err != nil || len(dcs) != 0 {
		t.Fatalf("PlaceDCs(0) = %v, %v", dcs, err)
	}
}

func TestChooseHubs(t *testing.T) {
	m := Generate(genConfig(2))
	near1, near2 := ChooseHubs(m, 5)
	far1, far2 := ChooseHubs(m, 22)
	if near1 == near2 || far1 == far2 {
		t.Fatal("hubs must be distinct")
	}
	dNear := m.Nodes[near1].Pos.Dist(m.Nodes[near2].Pos)
	dFar := m.Nodes[far1].Pos.Dist(m.Nodes[far2].Pos)
	if dNear >= dFar {
		t.Errorf("near hubs %.1f km apart, far hubs %.1f km: expected near < far", dNear, dFar)
	}
}

func TestFiberDistDisconnected(t *testing.T) {
	m := &Map{}
	m.AddNode(Hut, geo.Point{}, "")
	m.AddNode(Hut, geo.Point{X: 1}, "")
	if d := fiberDist(m, 0, 1); !math.IsInf(d, 1) {
		t.Errorf("fiberDist = %v, want +Inf", d)
	}
}
