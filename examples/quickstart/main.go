// Quickstart: plan the paper's Fig. 10 toy region and print the §3.4 cost
// comparison. This is the smallest end-to-end use of the library:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"iris/internal/core"
	"iris/internal/fibermap"
)

func main() {
	log.SetFlags(0)
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run prints the example to w.
func run(w io.Writer) error {
	// The Fig. 10 example: 4 DCs of 160 Tbps each (10 fiber-pairs at 400G
	// × 40 wavelengths), two hubs, five ducts.
	dep, err := core.Plan(core.UniformRegion(fibermap.Toy().Map, 10, 40), core.Options{})
	if err != nil {
		return err
	}

	fmt.Fprintln(w, "Iris quickstart — §3.4 toy example")
	fmt.Fprintf(w, "fiber-pairs: %d base + %d extra for fiber switching\n",
		dep.Plan.BaseFiberPairs(), dep.Plan.TotalFiberPairs()-dep.Plan.BaseFiberPairs())
	fmt.Fprintf(w, "electrical design: %5d transceivers, $%.1fM/yr\n",
		dep.EPS.TransceiverCount(), dep.EPS.Total()/1e6)
	fmt.Fprintf(w, "Iris design:       %5d transceivers, $%.1fM/yr\n",
		dep.Iris.TransceiverCount(), dep.Iris.Total()/1e6)
	fmt.Fprintf(w, "Iris is %.1fx cheaper (paper: 2.7x)\n", dep.EPS.Total()/dep.Iris.Total())
	return nil
}
