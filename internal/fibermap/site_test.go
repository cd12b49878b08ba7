package fibermap

import (
	"math"
	"testing"

	"iris/internal/geo"
)

// TestSiteReachUsesAccessTail: a site on a hut reaches through the
// 0.1 km co-location tail, a site away from the huts pays the
// road-factored access tail, and of two equidistant huts the lower ID
// comes first.
func TestSiteReachUsesAccessTail(t *testing.T) {
	m := &Map{}
	h0 := m.AddNode(Hut, geo.Point{X: 0}, "")
	h1 := m.AddNode(Hut, geo.Point{X: 12}, "")
	m.AddDuct(h0, h1, 14)
	dist := m.Graph().Dijkstra(h1).Dist

	f := float64(accessFactor) // multiplied at run time, as Sites does
	mid := math.Hypot(6, 5) * f
	for _, tc := range []struct {
		name  string
		p     geo.Point
		hut   [2]int
		acc   [2]float64
		reach float64
	}{
		{"on a hut", geo.Point{X: 0}, [2]int{h0, h1}, [2]float64{0.1, 12 * f}, 14.1},
		{"away", geo.Point{X: -10}, [2]int{h0, h1}, [2]float64{10 * f, 22 * f}, 10*f + 14},
		{"equidistant", geo.Point{X: 6, Y: 5}, [2]int{h0, h1}, [2]float64{mid, mid}, mid},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := m.Sites([]geo.Point{tc.p})[0]
			if s.P != tc.p || s.Hut != tc.hut || s.Acc != tc.acc {
				t.Fatalf("site %+v, want huts %v at %v", s, tc.hut, tc.acc)
			}
			if got := s.Reach(dist); got != tc.reach {
				t.Errorf("Reach = %v, want %v", got, tc.reach)
			}
		})
	}
}
