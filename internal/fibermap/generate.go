package fibermap

import (
	"fmt"
	"math/rand"
	"sort"

	"iris/internal/geo"
	"iris/internal/graph"
)

// GenConfig parameterises the synthetic metro fiber-map generator. The
// defaults (see DefaultGen) produce maps with the structural
// statistics the paper reports for Azure regions: tens of huts spread over
// a few tens of kilometres with abundant duct connectivity.
type GenConfig struct {
	Seed            int64
	RadiusKM        float64 // half-extent of the square region footprint
	Huts            int     // number of fiber huts to place
	MinHutSpacingKM float64 // Poisson-disk spacing between huts
	RoadFactor      float64 // fiber length = Euclidean × RoadFactor × jitter
	JitterFrac      float64 // relative jitter on duct length, e.g. 0.1
	NeighborDegree  int     // connect each hut to this many nearest huts
	ExtraEdges      int     // additional random longer-range ducts
}

// DefaultGen returns the generator configuration used throughout the
// evaluation; callers vary the seed per region by mutating the struct:
//
//	cfg := fibermap.DefaultGen()
//	cfg.Seed = 7
//
// The parameters are calibrated so generated maps share the
// characteristics the paper reports for Azure metro fiber: dense duct
// connectivity (paths cross few switching points), DC pairs reachable well
// inside the SLA, and abundant alternative routes for failure scenarios.
func DefaultGen() GenConfig {
	return GenConfig{
		RadiusKM:        26,
		Huts:            12,
		MinHutSpacingKM: 10,
		RoadFactor:      1.3,
		JitterFrac:      0.10,
		NeighborDegree:  6,
		ExtraEdges:      12,
	}
}

// Generate builds a synthetic metro fiber map of huts and ducts. The result
// contains no DCs; use PlaceDCs to add them following the paper's placement
// procedure. The same config always yields the same map.
func Generate(cfg GenConfig) *Map {
	rng := rand.New(rand.NewSource(cfg.Seed))
	m := &Map{}

	rect := geo.NewRect(
		geo.Point{X: -cfg.RadiusKM, Y: -cfg.RadiusKM},
		geo.Point{X: cfg.RadiusKM, Y: cfg.RadiusKM},
	)
	pts := geo.PoissonDisk(rng, rect, cfg.Huts, cfg.MinHutSpacingKM)
	for _, p := range pts {
		m.AddNode(Hut, p, "")
	}

	ductLen := func(a, b geo.Point) float64 {
		jitter := 1 + cfg.JitterFrac*(2*rng.Float64()-1)
		return a.Dist(b) * cfg.RoadFactor * jitter
	}

	// Connect each hut to its nearest neighbours; dedupe with an edge set.
	type pair struct{ a, b int }
	seen := make(map[pair]bool)
	addDuct := func(a, b int) {
		if a == b {
			return
		}
		if a > b {
			a, b = b, a
		}
		if seen[pair{a, b}] {
			return
		}
		seen[pair{a, b}] = true
		m.AddDuct(a, b, ductLen(m.Nodes[a].Pos, m.Nodes[b].Pos))
	}

	n := len(m.Nodes)
	for i := 0; i < n; i++ {
		order := nearestOrder(m, i)
		for k := 0; k < cfg.NeighborDegree && k < len(order); k++ {
			addDuct(i, order[k])
		}
	}

	// Guarantee connectivity by linking components via their closest pairs.
	for {
		labels := m.Graph().Components()
		maxLabel := 0
		for _, l := range labels {
			if l > maxLabel {
				maxLabel = l
			}
		}
		if maxLabel == 0 {
			break
		}
		bestA, bestB, bestD := -1, -1, 0.0
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				if labels[a] == labels[b] {
					continue
				}
				d := m.Nodes[a].Pos.Dist(m.Nodes[b].Pos)
				if bestA < 0 || d < bestD {
					bestA, bestB, bestD = a, b, d
				}
			}
		}
		addDuct(bestA, bestB)
	}

	// A few extra longer-range ducts for path diversity, as in dense metros.
	for k := 0; k < cfg.ExtraEdges; k++ {
		a, b := rng.Intn(n), rng.Intn(n)
		addDuct(a, b)
	}
	return m
}

// nearestOrder returns the other node IDs sorted by Euclidean distance from
// node i, with ID as the deterministic tiebreaker.
func nearestOrder(m *Map, i int) []int {
	order := make([]int, 0, len(m.Nodes)-1)
	for j := range m.Nodes {
		if j != i {
			order = append(order, j)
		}
	}
	pi := m.Nodes[i].Pos
	sort.Slice(order, func(x, y int) bool {
		dx, dy := pi.Dist(m.Nodes[order[x]].Pos), pi.Dist(m.Nodes[order[y]].Pos)
		if dx != dy {
			return dx < dy
		}
		return order[x] < order[y]
	})
	return order
}

// PlaceConfig parameterises DC placement (§6.1 of the paper).
type PlaceConfig struct {
	Seed       int64
	N          int     // number of DCs to place
	MaxFiberKM float64 // SLA limit on DC-DC fiber distance (120 km)
	GridCellKM float64 // candidate-site grid resolution
}

// DefaultPlace returns the placement configuration matching the paper's
// evaluation: the 120 km SLA, a candidate grid fine enough for the region
// sizes generated by DefaultGen, and the paper's 8-DC region size. Callers
// set Seed (and N, when different) on the returned struct.
func DefaultPlace() PlaceConfig {
	return PlaceConfig{N: 8, MaxFiberKM: 120, GridCellKM: 3}
}

// PlaceDCs adds cfg.N data centers to the map using the paper's randomized
// procedure: the first DC is placed uniformly at random in the service
// area; each successive DC is placed at a candidate location chosen with
// probability inversely proportional to its distance from the nearest
// already-placed DC, restricted to locations whose fiber distance to every
// existing DC is within the SLA. Each DC is attached to its two nearest
// huts by access ducts (Site). It returns the new DC node IDs, or an
// error if the service area is exhausted before N DCs are placed.
//
// A round reads each candidate's distance to a placed DC off that DC's
// shortest-path distance vector (one search per placed DC per round);
// only a candidate whose reading lies within siteBand of the SLA is
// decided by dcSiteFeasible's seeded search, so every decision, and so
// every placement, is the seeded search's.
func PlaceDCs(m *Map, cfg PlaceConfig) ([]int, error) {
	dcs, _, err := placeDCs(m, cfg)
	return dcs, err
}

// placeDCs is PlaceDCs, also counting the shortest-path searches it runs:
// one per placed DC per round, and one per candidate left to
// dcSiteFeasible.
func placeDCs(m *Map, cfg PlaceConfig) (dcs []int, searches int, err error) {
	if cfg.N <= 0 {
		return nil, 0, nil
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	huts := m.Huts()
	if len(huts) < 2 {
		return nil, 0, fmt.Errorf("fibermap: need at least 2 huts to attach DCs, have %d", len(huts))
	}

	var hutPts []geo.Point
	for _, h := range huts {
		hutPts = append(hutPts, m.Nodes[h].Pos)
	}
	rect := geo.BoundingRect(hutPts).Expand(5)

	// The grid and each point's access ducts never change between rounds:
	// a new DC is never a hut.
	sites := m.Sites(geo.GridPoints(rect, cfg.GridCellKM, func(geo.Point) bool { return true }))
	grid := make([]gridPoint, len(sites))
	for i := range sites {
		grid[i].Site = sites[i]
	}

	// One graph for every round, with room for the DCs to come; each
	// round's access ducts go into it as they go into the map. A DC is a
	// transit node, so they may have shortened hut-to-hut paths: each
	// round searches from every placed DC again.
	g := graph.New(len(m.Nodes) + cfg.N)
	for _, d := range m.Ducts {
		g.AddEdge(d.ID, d.A, d.B, d.FiberKM)
	}
	var vecs [][]float64
	candidates := make([]int, 0, len(grid)) // indices into grid
	for placed := 0; placed < cfg.N; placed++ {
		vecs = vecs[:0]
		for _, dc := range dcs {
			vecs = append(vecs, g.Dijkstra(dc).Dist)
		}
		searches += len(dcs)
		band := siteBand(g)
		candidates = candidates[:0]
		for i := range grid {
			ok, sure := grid[i].withinSLA(vecs, cfg.MaxFiberKM, band)
			if !sure {
				searches++
				ok = dcSiteFeasible(g, dcs, &grid[i].Site, cfg)
			}
			if ok {
				candidates = append(candidates, i)
			}
		}
		if len(candidates) == 0 {
			return dcs, searches, fmt.Errorf("fibermap: service area exhausted after %d of %d DCs", placed, cfg.N)
		}
		var site *Site
		if len(dcs) == 0 {
			site = &grid[candidates[rng.Intn(len(candidates))]].Site
		} else {
			site = &grid[nearWeightedPick(rng, grid, candidates)].Site
		}
		id := m.AddNode(DC, site.P, "")
		for j, h := range site.Hut {
			g.AddEdge(m.AddDuct(id, h, site.Acc[j]), id, h, site.Acc[j])
		}
		dcs = append(dcs, id)
		for i := range grid {
			if d := grid[i].P.Dist(site.P); len(dcs) == 1 || d < grid[i].near {
				grid[i].near = d
			}
		}
	}
	return dcs, searches, nil
}

// gridPoint is a candidate site and its straight-line distance to the
// nearest DC placed so far.
type gridPoint struct {
	Site
	near float64
}

// withinSLA reports whether a DC at s reaches every placed DC within
// maxKM, reading vecs, the placed DCs' distance vectors. Reach takes the
// same paths as dcSiteFeasible's seeded search from s's huts, so it is
// within band of that search's label (see siteBand). It is sure unless a
// reading lies inside the band and none lies beyond it.
func (s *Site) withinSLA(vecs [][]float64, maxKM, band float64) (ok, sure bool) {
	sure = true
	for _, dist := range vecs {
		r := s.Reach(dist)
		if r > maxKM+band {
			return false, true
		}
		if !(r < maxKM-band) {
			sure = false
		}
	}
	return true, sure
}

// siteBand bounds how far a site's reading may lie from dcSiteFeasible's
// seeded label. Both are float sums along a path between the site and
// the DC, and the graph is undirected, so they differ in two ways only:
//   - the order of the additions, which for sums near any SLA of up to
//     10⁴ km over fewer than 10⁴ ducts moves a sum by under 10⁻⁸ km;
//   - graph.better's 1e-9 km tie window. A label may exceed the best
//     offer it competes with by 1e-9 km each time a neighbour relaxes it,
//     so a search's label exceeds the shortest path by at most 1e-9 km
//     per edge end, 2·1e-9·|E| in all, in each of the two searches.
//
// 1e-6 km covers the first with room to spare and 4e-9·|E| the second,
// so a reading outside the band is on the same side of the SLA as the
// seeded label, and the seeded search decides every reading inside it.
func siteBand(g *graph.Graph) float64 {
	return 1e-6 + 4e-9*float64(g.NumEdges())
}

// dcSiteFeasible reports whether a candidate DC at s could reach every
// existing DC within the SLA fiber distance by one seeded search. PlaceDCs
// calls it only for a candidate whose vector reading is too close to the
// SLA to trust. g must be the map's current graph. The candidate is never
// materialised: since its only edges would run to its two huts, seeding
// those huts with the access-duct lengths yields the identical distance
// vector a cloned trial map would.
func dcSiteFeasible(g *graph.Graph, dcs []int, s *Site, cfg PlaceConfig) bool {
	if len(dcs) == 0 {
		return true
	}
	dist := g.DistancesFromSeeds([]graph.Seed{{Node: s.Hut[0], Dist: s.Acc[0]}, {Node: s.Hut[1], Dist: s.Acc[1]}})
	for _, dc := range dcs {
		if dist[dc] > cfg.MaxFiberKM {
			return false
		}
	}
	return true
}

// nearWeightedPick returns the index of one of the candidate grid points,
// chosen with probability inversely proportional to its distance from the
// nearest already-placed DC (§6.1), the distance each point keeps.
func nearWeightedPick(rng *rand.Rand, grid []gridPoint, candidates []int) int {
	weight := func(i int) float64 { return 1 / (grid[i].near + 0.5) } // +0.5 km regularizer avoids a singularity at 0
	var total float64
	for _, i := range candidates {
		total += weight(i)
	}
	r := rng.Float64() * total
	for _, i := range candidates {
		r -= weight(i)
		if r <= 0 {
			return i
		}
	}
	return candidates[len(candidates)-1]
}

// ChooseHubs picks two huts to serve as the hubs of a centralized design.
// It selects the hut closest to the centroid of all huts, then the hut
// whose distance from the first is closest to spreadKM, modelling the
// paper's near (4–7 km) and far (20–24 km) hub placements.
func ChooseHubs(m *Map, spreadKM float64) (h1, h2 int) {
	huts := m.Huts()
	if len(huts) < 2 {
		panic("fibermap: ChooseHubs requires at least 2 huts")
	}
	var pts []geo.Point
	for _, h := range huts {
		pts = append(pts, m.Nodes[h].Pos)
	}
	c := geo.Centroid(pts)
	h1 = huts[0]
	for _, h := range huts[1:] {
		if m.Nodes[h].Pos.Dist(c) < m.Nodes[h1].Pos.Dist(c) {
			h1 = h
		}
	}
	h2 = -1
	bestGap := 0.0
	for _, h := range huts {
		if h == h1 {
			continue
		}
		gap := abs(m.Nodes[h].Pos.Dist(m.Nodes[h1].Pos) - spreadKM)
		if h2 < 0 || gap < bestGap {
			h2, bestGap = h, gap
		}
	}
	return h1, h2
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
