// Failover: demonstrates the OC4 guarantee — a plan with 2-cut tolerance
// keeps every DC pair connected on an SLA-compliant, fully provisioned
// path through any two simultaneous duct cuts, while a 0-tolerance plan
// loses capacity.
//
//	go run ./examples/failover
package main

import (
	"fmt"
	"log"
	"math"
	"sort"

	"iris/internal/core"
	"iris/internal/fibermap"
	"iris/internal/graph"
)

func main() {
	log.SetFlags(0)

	const seed = 3
	gcfg := fibermap.DefaultGen()
	gcfg.Seed = seed
	m := fibermap.Generate(gcfg)
	pcfg := fibermap.DefaultPlace()
	pcfg.Seed, pcfg.N = seed, 6
	dcs, err := fibermap.PlaceDCs(m, pcfg)
	if err != nil {
		log.Fatal(err)
	}
	caps := make(map[int]int, len(dcs))
	for _, dc := range dcs {
		caps[dc] = 8
	}

	region := core.Region{Map: m, Capacity: caps, Lambda: 40}
	tolerantDep, err := core.Plan(region, core.Options{MaxFailures: 2})
	if err != nil {
		log.Fatal(err)
	}
	fragileDep, err := core.Plan(region, core.Options{MaxFailures: 0})
	if err != nil {
		log.Fatal(err)
	}
	tolerant, fragile := tolerantDep.Plan, fragileDep.Plan
	fmt.Printf("6-DC region: 2-cut-tolerant plan leases %d fiber-pairs, fragile plan %d\n",
		tolerant.TotalFiberPairs(), fragile.TotalFiberPairs())

	// Exhaustively re-check the tolerant plan: under every 2-cut scenario,
	// every still-connected DC pair must find a path whose every duct the
	// plan provisioned.
	g := m.Graph()
	var ductIDs []int
	for _, d := range m.Ducts {
		ductIDs = append(ductIDs, d.ID)
	}
	scenarios, covered, uncovReroutes := 0, 0, 0
	cut := graph.NewCut(g)
	var tree graph.ShortestPathTree
	var scratch graph.Scratch
	graph.FailureScenarios(ductIDs, 2, func(ducts []int) {
		scenarios++
		cut.Set(ducts)
		for i, a := range dcs {
			g.DijkstraInto(a, cut.Skip(), &tree, &scratch)
			for _, b := range dcs[i+1:] {
				if math.IsInf(tree.Dist[b], 1) {
					continue // physically disconnected: no guarantee owed
				}
				_, edges, _ := tree.PathTo(b)
				ok := true
				for _, e := range edges {
					duT := tolerant.Ducts[e.ID]
					if duT == nil || duT.TotalPairs() == 0 {
						ok = false
					}
				}
				if ok {
					covered++
				} else {
					uncovReroutes++
				}
			}
		}
	})
	fmt.Printf("checked %d failure scenarios: %d surviving pair-paths fully provisioned, %d not\n",
		scenarios, covered, uncovReroutes)
	if uncovReroutes > 0 {
		log.Fatal("FAIL: the tolerant plan left reroutes unprovisioned")
	}

	// Show a concrete double cut: kill the two ducts carrying the most
	// fiber (the lower duct ID wins a tie) and confirm the tolerant plan
	// still routes everything.
	ids := make([]int, 0, len(tolerant.Ducts))
	for id := range tolerant.Ducts {
		ids = append(ids, id)
	}
	pairsOf := func(id int) int { return tolerant.Ducts[id].TotalPairs() }
	sort.Slice(ids, func(i, j int) bool {
		if pairsOf(ids[i]) != pairsOf(ids[j]) {
			return pairsOf(ids[i]) > pairsOf(ids[j])
		}
		return ids[i] < ids[j]
	})
	worst1, worst2 := ids[0], ids[1]
	best1, best2 := pairsOf(worst1), pairsOf(worst2)
	cut.Set([]int{worst1, worst2})
	fmt.Printf("\ncutting the two busiest ducts (%d and %d, %d+%d fiber-pairs):\n",
		worst1, worst2, best1, best2)
	for i, a := range dcs {
		g.DijkstraInto(a, cut.Skip(), &tree, &scratch)
		for _, b := range dcs[i+1:] {
			if math.IsInf(tree.Dist[b], 1) {
				fmt.Printf("  %s-%s physically disconnected by the cuts\n",
					m.Nodes[a].Name, m.Nodes[b].Name)
				continue
			}
			fmt.Printf("  %s-%s re-routes over %.1f km (SLA 120 km: %v)\n",
				m.Nodes[a].Name, m.Nodes[b].Name, tree.Dist[b], tree.Dist[b] <= 120)
		}
	}
}
