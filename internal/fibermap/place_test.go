package fibermap

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"iris/internal/geo"
	"iris/internal/graph"
)

// placeOracle places DCs by the §6.1 procedure with every grid point,
// every round, checked by dcSiteFeasible's seeded search: the reference
// PlaceDCs must match.
func placeOracle(m *Map, cfg PlaceConfig) ([]int, error) {
	if cfg.N <= 0 {
		return nil, nil
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	huts := m.Huts()
	if len(huts) < 2 {
		return nil, fmt.Errorf("fibermap: need at least 2 huts to attach DCs, have %d", len(huts))
	}

	var hutPts []geo.Point
	for _, h := range huts {
		hutPts = append(hutPts, m.Nodes[h].Pos)
	}
	rect := geo.BoundingRect(hutPts).Expand(5)

	var dcs []int
	for placed := 0; placed < cfg.N; placed++ {
		g := m.Graph()
		candidates := geo.GridPoints(rect, cfg.GridCellKM, func(p geo.Point) bool {
			return dcSiteFeasible(g, dcs, oracleSite(m, huts, p), cfg)
		})
		if len(candidates) == 0 {
			return dcs, fmt.Errorf("fibermap: service area exhausted after %d of %d DCs", placed, cfg.N)
		}
		var site geo.Point
		if len(dcs) == 0 {
			site = candidates[rng.Intn(len(candidates))]
		} else {
			site = weightedPick(rng, m, dcs, candidates)
		}
		id := m.AddNode(DC, site, "")
		for _, h := range nearestHuts(m, site, huts, 2) {
			m.AddDuct(id, h, accessLen(site, m.Nodes[h].Pos))
		}
		dcs = append(dcs, id)
	}
	return dcs, nil
}

// oracleSite attaches p to the two huts nearestHuts' sort picks: the
// oracle's attachment, which Map.Sites' scan must match.
func oracleSite(m *Map, huts []int, p geo.Point) *Site {
	s := &Site{P: p}
	for j, h := range nearestHuts(m, p, huts, 2) {
		s.Hut[j], s.Acc[j] = h, accessLen(p, m.Nodes[h].Pos)
	}
	return s
}

// nearestHuts returns the k hut IDs closest to p (Euclidean), ID-tiebroken.
func nearestHuts(m *Map, p geo.Point, huts []int, k int) []int {
	order := append([]int(nil), huts...)
	sort.Slice(order, func(x, y int) bool {
		dx, dy := p.Dist(m.Nodes[order[x]].Pos), p.Dist(m.Nodes[order[y]].Pos)
		if dx != dy {
			return dx < dy
		}
		return order[x] < order[y]
	})
	if len(order) > k {
		order = order[:k]
	}
	return order
}

// weightedPick selects a candidate with probability inversely proportional
// to its distance from the nearest already-placed DC (§6.1), measuring
// every candidate against every placed DC: the oracle's draw.
func weightedPick(rng *rand.Rand, m *Map, dcs []int, candidates []geo.Point) geo.Point {
	weights := make([]float64, len(candidates))
	var total float64
	for i, c := range candidates {
		best := -1.0
		for _, dc := range dcs {
			if d := c.Dist(m.Nodes[dc].Pos); best < 0 || d < best {
				best = d
			}
		}
		w := 1 / (best + 0.5) // +0.5 km regularizer avoids a singularity at 0
		weights[i] = w
		total += w
	}
	r := rng.Float64() * total
	for i, w := range weights {
		r -= w
		if r <= 0 {
			return candidates[i]
		}
	}
	return candidates[len(candidates)-1]
}

// checkMatchesOracle places cfg on two copies of base, once with PlaceDCs
// and once with the oracle, and fails unless the IDs, the error, the nodes
// and the ducts are identical. It returns PlaceDCs' search count.
func checkMatchesOracle(t *testing.T, base *Map, cfg PlaceConfig) int {
	t.Helper()
	got, want := base.Clone(), base.Clone()
	gotIDs, searches, gotErr := placeDCs(got, cfg)
	wantIDs, wantErr := placeOracle(want, cfg)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%+v: error %v, oracle %v", cfg, gotErr, wantErr)
	}
	if !slices.Equal(gotIDs, wantIDs) {
		t.Fatalf("%+v: DCs %v, oracle %v", cfg, gotIDs, wantIDs)
	}
	if !slices.Equal(got.Nodes, want.Nodes) {
		t.Fatalf("%+v: nodes differ from the oracle's", cfg)
	}
	if !slices.Equal(got.Ducts, want.Ducts) {
		t.Fatalf("%+v: ducts differ from the oracle's", cfg)
	}
	return searches
}

// TestPlaceDCsMatchesOracle: reading the placed DCs' distance vectors
// places every DC, access duct and fiber length exactly where the seeded
// search per candidate does, also where a tight SLA exhausts the area.
func TestPlaceDCsMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		base := Generate(genConfig(seed))
		for _, n := range []int{8, 20} {
			for _, sla := range []float64{120, 60} {
				cfg := placeConfig(seed, n)
				cfg.MaxFiberKM = sla
				checkMatchesOracle(t, base, cfg)
			}
		}
	}
}

// TestPlaceDCsBandFallsBack places where a candidate's reading lies
// inside the band, so the seeded search must decide it, and holds the
// result to the oracle's. "forced" sets the SLA to the largest seeded
// distance from a grid point to the first DC. "by chance" is the one
// case found among 2 700 placements (seeds 1–60, 8–30 DCs, 2–5 km cells,
// 40–120 km SLAs): a grid point 0.75 mm beyond the 60 km SLA.
// TestPlaceDCsMatchesOracle's placements never fall back.
func TestPlaceDCsBandFallsBack(t *testing.T) {
	cases := []struct {
		name      string
		seed      int64
		n         int
		cell, sla float64
	}{
		{"forced", 3, 2, 3, forcedSLA(t, 3)},
		{"by chance", 58, 8, 2, 60},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := placeConfig(tc.seed, tc.n)
			cfg.GridCellKM, cfg.MaxFiberKM = tc.cell, tc.sla
			n := checkMatchesOracle(t, Generate(genConfig(tc.seed)), cfg)
			// Round k searches once from each of the k placed DCs;
			// the rest are fallbacks.
			if vectors := tc.n * (tc.n - 1) / 2; n <= vectors {
				t.Fatalf("%d searches, %d of them from placed DCs: nothing fell back", n, vectors)
			}
		})
	}
}

// forcedSLA places seed's first DC and returns the largest seeded
// distance from a grid point to it: at that SLA every point stays
// feasible and the farthest lies exactly on it.
func forcedSLA(t *testing.T, seed int64) float64 {
	t.Helper()
	m := Generate(genConfig(seed))
	cfg := placeConfig(seed, 1)
	dcs, err := PlaceDCs(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	huts := m.Huts()
	var pts []geo.Point
	for _, h := range huts {
		pts = append(pts, m.Nodes[h].Pos)
	}
	g := m.Graph()
	sla := 0.0
	geo.GridPoints(geo.BoundingRect(pts).Expand(5), cfg.GridCellKM, func(p geo.Point) bool {
		var seeds []graph.Seed
		for _, h := range nearestHuts(m, p, huts, 2) {
			seeds = append(seeds, graph.Seed{Node: h, Dist: accessLen(p, m.Nodes[h].Pos)})
		}
		sla = max(sla, g.DistancesFromSeeds(seeds)[dcs[0]])
		return false
	})
	return sla
}

// FuzzPlaceDCsMatchesOracle widens TestPlaceDCsMatchesOracle over the
// generator seed, the number of DCs (1–30), the grid cell (2–6 km) and
// the SLA (30–150 km).
func FuzzPlaceDCsMatchesOracle(f *testing.F) {
	f.Add(int64(1), uint8(19), uint8(10), uint16(900))
	// Thirty DCs at a 30 km SLA on a 2 km grid: stale vectors, kept from
	// the round their DC was placed in, pick different sites here.
	f.Add(int64(7), uint8(29), uint8(0), uint16(0))
	f.Add(int64(42), uint8(0), uint8(40), uint16(1200))
	f.Fuzz(func(t *testing.T, seed int64, n, cell uint8, sla uint16) {
		cfg := placeConfig(seed, 1+int(n)%30)
		cfg.GridCellKM = 2 + float64(cell%41)/10
		cfg.MaxFiberKM = 30 + float64(sla%1201)/10
		checkMatchesOracle(t, Generate(genConfig(seed)), cfg)
	})
}

// BenchmarkPlaceDCs20 places the bench region's 20 DCs (generator and
// placement seed 1) and fails above 200 shortest-path searches a
// placement: 190 from the placed DCs (one per DC per round) and room for
// ten band fallbacks. The oracle's seeded search per candidate makes
// 6 859.
func BenchmarkPlaceDCs20(b *testing.B) {
	base := Generate(genConfig(1))
	cfg := placeConfig(1, 20)
	b.ReportAllocs()
	total := 0
	for i := 0; i < b.N; i++ {
		_, n, err := placeDCs(base.Clone(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		total += n
	}
	per := float64(total) / float64(b.N)
	b.ReportMetric(per, "searches/op")
	if per > 200 {
		b.Fatalf("%.0f shortest-path searches a placement, want at most 200", per)
	}
}
