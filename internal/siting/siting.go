// Package siting implements the DC siting-flexibility analysis of §2.2 of
// the paper (Figs. 4–6): how much area is available for placing the next
// data center under the centralized model (within half the SLA fiber
// distance of both hubs) versus the distributed model (within the full SLA
// fiber distance of every existing DC), measured over real fiber-map
// distances rather than straight lines. A candidate site attaches to the
// fiber map as a placed DC does (fibermap.Site).
package siting

import (
	"fmt"

	"iris/internal/fibermap"
	"iris/internal/geo"
)

// Analysis configures the service-area computation for one region. Map
// must have at least two huts.
type Analysis struct {
	Map *fibermap.Map
	// MaxFiberKM is the SLA limit on DC-DC fiber distance (120 km).
	MaxFiberKM float64
	// GridCellKM is the measurement resolution.
	GridCellKM float64
	// MarginKM expands the measurement window beyond the hut bounding box.
	MarginKM float64
}

// DefaultAnalysis returns the configuration used in the evaluation,
// matching the placement parameters of fibermap.DefaultPlace. The
// measurement window extends well beyond the hut bounding box: sites far
// outside the metro core are exactly where the distributed model's longer
// reach pays off (Fig. 5's extended shaded areas).
func DefaultAnalysis(m *fibermap.Map) Analysis {
	return Analysis{Map: m, MaxFiberKM: 120, GridCellKM: 2, MarginKM: 45}
}

// window returns the measurement rectangle.
func (a Analysis) window() geo.Rect {
	var pts []geo.Point
	for _, h := range a.Map.Huts() {
		pts = append(pts, a.Map.Nodes[h].Pos)
	}
	return geo.BoundingRect(pts).Expand(a.MarginKM)
}

// distancesFrom returns shortest fiber distances from the given node to
// every node of the map.
func (a Analysis) distancesFrom(node int) []float64 {
	return a.Map.Graph().Dijkstra(node).Dist
}

// reaches reports whether s is within limit of every node whose distance
// vector is in dists.
func reaches(s *fibermap.Site, dists [][]float64, limit float64) bool {
	for _, dist := range dists {
		if s.Reach(dist) > limit {
			return false
		}
	}
	return true
}

// area returns the area (km²) of the measurement grid's cells within
// limit of every node whose distance vector is in dists.
func (a Analysis) area(dists [][]float64, limit float64) float64 {
	sites := a.Map.Sites(geo.GridPoints(a.window(), a.GridCellKM, func(geo.Point) bool { return true }))
	n := 0
	for i := range sites {
		if reaches(&sites[i], dists, limit) {
			n++
		}
	}
	return float64(n) * a.GridCellKM * a.GridCellKM
}

// CentralizedArea returns the area (km²) where a new DC could be sited in
// the centralized design with the given hub nodes: its fiber distance to
// each hub must be at most MaxFiberKM/2, so that any DC-hub-DC path meets
// the SLA (§2.2).
func (a Analysis) CentralizedArea(hubs ...int) (float64, error) {
	if len(hubs) == 0 {
		return 0, fmt.Errorf("siting: centralized analysis needs at least one hub")
	}
	dists := make([][]float64, len(hubs))
	for i, h := range hubs {
		dists[i] = a.distancesFrom(h)
	}
	return a.area(dists, a.MaxFiberKM/2), nil
}

// DistributedArea returns the area (km²) where a new DC could be sited in
// the distributed design: its fiber distance to every existing DC must be
// at most MaxFiberKM. With no existing DCs the whole serviceable window
// (any site that can attach to the fiber map at all) qualifies.
func (a Analysis) DistributedArea(existing ...int) (float64, error) {
	for _, dc := range existing {
		if dc < 0 || dc >= len(a.Map.Nodes) {
			return 0, fmt.Errorf("siting: DC node %d out of range", dc)
		}
	}
	dists := make([][]float64, len(existing))
	for i, dc := range existing {
		dists[i] = a.distancesFrom(dc)
	}
	return a.area(dists, a.MaxFiberKM), nil
}

// AreaIncrease returns the Fig. 6 metric for one region: the ratio of the
// distributed service area (given the existing DCs) to the centralized
// service area (given the two hubs).
func (a Analysis) AreaIncrease(hub1, hub2 int, existing []int) (float64, error) {
	ca, err := a.CentralizedArea(hub1, hub2)
	if err != nil {
		return 0, err
	}
	if ca == 0 {
		return 0, fmt.Errorf("siting: centralized service area is empty")
	}
	da, err := a.DistributedArea(existing...)
	if err != nil {
		return 0, err
	}
	return da / ca, nil
}
