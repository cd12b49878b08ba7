// Package siting implements the DC siting-flexibility analysis of §2.2 of
// the paper (Figs. 4–6): how much area is available for placing the next
// data center under the centralized model (within half the SLA fiber
// distance of both hubs) versus the distributed model (within the full SLA
// fiber distance of every existing DC), measured over real fiber-map
// distances rather than straight lines.
package siting

import (
	"fmt"

	"iris/internal/fibermap"
	"iris/internal/geo"
	"iris/internal/graph"
)

// Analysis configures the service-area computation for one region.
type Analysis struct {
	Map *fibermap.Map
	// MaxFiberKM is the SLA limit on DC-DC fiber distance (120 km).
	MaxFiberKM float64
	// RoadFactor converts a candidate site's straight-line distance to its
	// attachment huts into kilometres of access fiber.
	RoadFactor float64
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
	return Analysis{Map: m, MaxFiberKM: 120, RoadFactor: 1.35, GridCellKM: 2, MarginKM: 45}
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

// siteDistance returns the fiber distance from a candidate site to a
// target node, attaching the site to its two nearest huts as PlaceDCs
// does: the access tail plus the fiber-map distance from the hut.
func siteDistance(m *fibermap.Map, huts []int, distToTarget []float64, p geo.Point, roadFactor float64) float64 {
	best := graph.Inf
	// Consider the two nearest huts, consistent with DC dual-homing.
	h1, h2 := -1, -1
	d1, d2 := graph.Inf, graph.Inf
	for _, h := range huts {
		d := p.Dist(m.Nodes[h].Pos)
		switch {
		case d < d1:
			h2, d2 = h1, d1
			h1, d1 = h, d
		case d < d2:
			h2, d2 = h, d
		}
	}
	for _, hd := range [][2]float64{{float64(h1), d1}, {float64(h2), d2}} {
		h := int(hd[0])
		if h < 0 {
			continue
		}
		total := hd[1]*roadFactor + distToTarget[h]
		if total < best {
			best = total
		}
	}
	return best
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
	huts := a.Map.Huts()
	limit := a.MaxFiberKM / 2
	area := geo.GridArea(a.window(), a.GridCellKM, func(p geo.Point) bool {
		for _, dist := range dists {
			if siteDistance(a.Map, huts, dist, p, a.RoadFactor) > limit {
				return false
			}
		}
		return true
	})
	return area, nil
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
	huts := a.Map.Huts()
	area := geo.GridArea(a.window(), a.GridCellKM, func(p geo.Point) bool {
		for _, dist := range dists {
			if siteDistance(a.Map, huts, dist, p, a.RoadFactor) > a.MaxFiberKM {
				return false
			}
		}
		return true
	})
	return area, nil
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
