package graph_test

import (
	"reflect"
	"testing"

	"iris/internal/fibermap"
	"iris/internal/geo"
	"iris/internal/graph"
)

// On the generated regions everything downstream is pinned to — DC
// placement and every plan — the production loop must agree with the
// typed-heap oracle bit for bit: full trees from every DC (placement
// reads each placed DC's distance vector, and every plan routes on
// Dijkstra from each DC), and the distance vector of every seed set
// placement may fall back to (each candidate grid site's two huts at
// their access-duct lengths, fibermap.Site as placement builds it,
// seeded only for a reading inside placement's band around the SLA).
func TestGeneratedMapsMatchHeapOracle(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		gcfg := fibermap.DefaultGen()
		gcfg.Seed = seed
		m := fibermap.Generate(gcfg)
		pcfg := fibermap.DefaultPlace()
		pcfg.Seed, pcfg.N = seed, 20
		if _, err := fibermap.PlaceDCs(m, pcfg); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		g := m.Graph()

		for _, dc := range m.DCs() {
			got := g.Dijkstra(dc)
			want := g.HeapDijkstra(dc, []graph.Seed{{Node: dc}})
			if !reflect.DeepEqual(got.Dist, want.Dist) || !reflect.DeepEqual(got.Hops, want.Hops) {
				t.Fatalf("seed %d: labels from DC %d differ from the heap oracle", seed, dc)
			}
			for v := 0; v < g.NumNodes(); v++ {
				gn, ge, _ := got.AppendPathTo(v, nil, nil)
				wn, we, _ := want.AppendPathTo(v, nil, nil)
				if !reflect.DeepEqual(gn, wn) || !reflect.DeepEqual(ge, we) {
					t.Fatalf("seed %d: path %d->%d differs from the heap oracle", seed, dc, v)
				}
			}
		}

		huts := m.Huts()
		pts := make([]geo.Point, len(huts))
		for i, h := range huts {
			pts[i] = m.Nodes[h].Pos
		}
		rect := geo.BoundingRect(pts).Expand(5)
		sites := m.Sites(geo.GridPoints(rect, pcfg.GridCellKM, func(geo.Point) bool { return true }))
		for _, s := range sites {
			seeds := []graph.Seed{{Node: s.Hut[0], Dist: s.Acc[0]}, {Node: s.Hut[1], Dist: s.Acc[1]}}
			got := g.DistancesFromSeeds(seeds)
			want := g.HeapDijkstra(-1, seeds).Dist
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: distances from seeds %v differ from the heap oracle", seed, seeds)
			}
		}
		if len(sites) == 0 {
			t.Fatalf("seed %d: no candidate grid points", seed)
		}
	}
}
