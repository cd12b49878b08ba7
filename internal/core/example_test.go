package core_test

import (
	"fmt"
	"log"

	"iris/internal/core"
	"iris/internal/fibermap"
	"iris/internal/hose"
	"iris/internal/traffic"
)

// Example plans the paper's Fig. 10 toy region, allocates circuits for a
// traffic matrix, and shows what a traffic shift would reconfigure.
func Example() {
	toy := fibermap.Toy()
	// 10 fiber-pairs a DC: 160 Tbps at 400G × 40λ.
	dep, err := core.Plan(core.UniformRegion(toy.Map, 10, 40), core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("EPS/Iris cost ratio: %.1fx\n", dep.EPS.Total()/dep.Iris.Total())

	m := traffic.NewMatrix(toy.Map.DCs())
	m.Set(hose.Pair{A: toy.DC1, B: toy.DC3}, 100) // wavelengths
	alloc, err := dep.Allocate(m)
	if err != nil {
		log.Fatal(err)
	}
	p := hose.Pair{A: toy.DC1, B: toy.DC3}
	fmt.Printf("DC1-DC3: %d full fibers + %d residual wavelengths\n",
		alloc.FibersFor(p), alloc.ResidualFor(p))

	m.Set(p, 150)
	alloc2, _ := dep.Allocate(m)
	moves := core.Diff(alloc, alloc2)
	fmt.Printf("after the shift: %d circuit move(s)\n", len(moves))
	// Output:
	// EPS/Iris cost ratio: 2.7x
	// DC1-DC3: 2 full fibers + 20 residual wavelengths
	// after the shift: 1 circuit move(s)
}
