// Quickstart: plan the paper's Fig. 10 toy region and print the §3.4 cost
// comparison. This is the smallest end-to-end use of the library:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"iris/internal/core"
	"iris/internal/fibermap"
)

func main() {
	log.SetFlags(0)

	// The Fig. 10 example: 4 DCs of 160 Tbps each (10 fiber-pairs at 400G
	// × 40 wavelengths), two hubs, five ducts.
	dep, err := core.Plan(core.UniformRegion(fibermap.Toy().Map, 10, 40), core.Options{})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Iris quickstart — §3.4 toy example")
	fmt.Printf("fiber-pairs: %d base + %d extra for fiber switching\n",
		dep.Plan.BaseFiberPairs(), dep.Plan.TotalFiberPairs()-dep.Plan.BaseFiberPairs())
	fmt.Printf("electrical design: %5d transceivers, $%.1fM/yr\n",
		dep.EPS.TransceiverCount(), dep.EPS.Total()/1e6)
	fmt.Printf("Iris design:       %5d transceivers, $%.1fM/yr\n",
		dep.Iris.TransceiverCount(), dep.Iris.Total()/1e6)
	fmt.Printf("Iris is %.1fx cheaper (paper: 2.7x)\n", dep.EPS.Total()/dep.Iris.Total())
}
