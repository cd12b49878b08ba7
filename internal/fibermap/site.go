package fibermap

import (
	"math"

	"iris/internal/geo"
)

// accessFactor converts a site's straight-line distance to a hut into
// kilometres of access-duct fiber, which follows roads.
const accessFactor = 1.35

// Site is a candidate DC location attached to the fiber map as PlaceDCs
// attaches a DC: to its two nearest huts (Euclidean distance, the lower
// hut ID on a tie), Hut[0] the nearer, each by an access duct of Acc[j]
// km. The siting analysis (§2.2) and placement (§6.1) both measure a
// site through it.
type Site struct {
	P   geo.Point
	Hut [2]int
	Acc [2]float64
}

// Sites attaches each point to its two nearest huts in one scan of the
// huts per point. m must have at least two huts.
func (m *Map) Sites(pts []geo.Point) []Site {
	huts := m.Huts()
	if len(huts) < 2 {
		panic("fibermap: Sites requires at least 2 huts")
	}
	sites := make([]Site, len(pts))
	for i, p := range pts {
		s := &sites[i]
		s.P = p
		// Huts are scanned in ID order, so a strict comparison keeps the
		// lower ID first on a tie.
		d0, d1 := math.Inf(1), math.Inf(1)
		for _, h := range huts {
			switch d := p.Dist(m.Nodes[h].Pos); {
			case d < d0:
				s.Hut[1], d1 = s.Hut[0], d0
				s.Hut[0], d0 = h, d
			case d < d1:
				s.Hut[1], d1 = h, d
			}
		}
		for j, h := range s.Hut {
			s.Acc[j] = accessLen(p, m.Nodes[h].Pos)
		}
	}
	return sites
}

// Reach returns the site's fiber distance to the node whose shortest-path
// distance vector is dist: min_j(Acc[j] + dist[Hut[j]]).
func (s *Site) Reach(dist []float64) float64 {
	return min(s.Acc[0]+dist[s.Hut[0]], s.Acc[1]+dist[s.Hut[1]])
}

// accessLen is the fiber length of the access duct from a site to a hut.
func accessLen(site, hut geo.Point) float64 {
	d := site.Dist(hut) * accessFactor
	if d <= 0 {
		d = 0.1 // co-located DC and hut still need a short tail
	}
	return d
}
