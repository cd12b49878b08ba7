// Servicearea: renders the Fig. 5-style siting map for a synthetic region
// — which sites could host the next DC under the centralized model (needs
// to be within 60 km of fiber from both hubs) versus the distributed model
// (within 120 km of fiber from every existing DC) — and prints the Fig. 6
// area-increase ratio.
//
//	go run ./examples/servicearea
package main

import (
	"fmt"
	"log"

	"iris/internal/fibermap"
	"iris/internal/siting"
)

func main() {
	log.SetFlags(0)

	const seed = 2
	m, err := fibermap.Placed(seed, seed+50, 4)
	if err != nil {
		log.Fatal(err)
	}
	dcs := m.DCs()
	h1, h2 := fibermap.ChooseHubs(m, 6)

	a := siting.DefaultAnalysis(m)
	a.GridCellKM = 4

	fmt.Printf("region: %d huts, %d DCs placed; hubs %s and %s\n\n",
		len(m.Huts()), len(dcs), m.Nodes[h1].Name, m.Nodes[h2].Name)
	fmt.Print(a.Render(h1, h2, dcs, 72))

	ca, err := a.CentralizedArea(h1, h2)
	if err != nil {
		log.Fatal(err)
	}
	da, err := a.DistributedArea(dcs...)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncentralized service area: %6.0f km²\n", ca)
	fmt.Printf("distributed service area: %6.0f km²\n", da)
	fmt.Printf("area increase: %.1fx (the paper reports 2-5x across Azure regions)\n", da/ca)
}
