// Regionplan: the full planning workflow on a realistic synthetic region —
// generate a metro fiber map, place DCs the way the paper's §6.1
// methodology does, plan with a 2-cut failure tolerance, then allocate
// circuits for a concrete traffic matrix and show what a traffic shift
// would reconfigure.
//
//	go run ./examples/regionplan
package main

import (
	"fmt"
	"log"
	"math/rand"

	"iris/internal/core"
	"iris/internal/fibermap"
	"iris/internal/traffic"
)

func main() {
	log.SetFlags(0)

	// A region: 24-hut metro fiber map, 8 DCs of 16 fiber-pairs each.
	const seed = 7
	m, err := fibermap.Spec{Seed: seed, DCs: 8}.Map()
	if err != nil {
		log.Fatal(err)
	}
	dcs := m.DCs()
	region := core.UniformRegion(m, 16, 40)

	dep, err := core.Plan(region, core.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	pl := dep.Plan
	fmt.Printf("planned %d-DC region under %d failure scenarios:\n", len(dcs), pl.NScena)
	fmt.Printf("  %d fiber-pairs (%d base), %d amplifiers, %d cut-throughs, %d/%d huts used\n",
		pl.TotalFiberPairs(), pl.BaseFiberPairs(), pl.TotalAmps(), len(pl.Cuts),
		len(pl.UsedHuts()), len(m.Huts()))
	fmt.Printf("  EPS $%.1fM/yr vs Iris $%.1fM/yr (%.1fx)\n",
		dep.EPS.Total()/1e6, dep.Iris.Total()/1e6, dep.EPS.Total()/dep.Iris.Total())

	// Circuit allocation for a heavy-tailed matrix at 50% utilization.
	rng := rand.New(rand.NewSource(seed))
	caps := region.HoseCaps()
	matrix := traffic.HeavyTailed(rng, dcs, caps, 0.5)
	integerize(matrix)
	alloc, err := dep.Allocate(matrix)
	if err != nil {
		log.Fatal(err)
	}
	full, residual := 0, 0
	for _, f := range alloc.Fibers {
		full += f
	}
	for _, r := range alloc.Residual {
		if r > 0 {
			residual++
		}
	}
	fmt.Printf("\ncircuit allocation at 50%% utilization:\n")
	fmt.Printf("  %d full fiber circuits, %d pairs using their residual fiber\n", full, residual)

	// Evolve the traffic and show the reconfiguration a controller would
	// execute.
	cp := traffic.ChangeProcess{Bound: 0.5, Caps: caps, Util: 0.5}
	cp.Step(rng, matrix)
	integerize(matrix)
	newAlloc, err := dep.Allocate(matrix)
	if err != nil {
		log.Fatal(err)
	}
	moves := core.Diff(alloc, newAlloc)
	fmt.Printf("\nafter a 50%%-bounded traffic change: %d circuits need fiber moves\n", len(moves))
	for i, mv := range moves {
		if i >= 5 {
			fmt.Printf("  ... and %d more\n", len(moves)-5)
			break
		}
		fmt.Printf("  %s ↔ %s: %+d fibers (%.0f%% of the circuit dims for 70 ms)\n",
			m.Nodes[mv.Pair.A].Name, m.Nodes[mv.Pair.B].Name,
			mv.FibersDelta, mv.FracAffected*100)
	}
	if len(moves) == 0 {
		fmt.Println("  (the change fit within residual wavelengths — no fiber switching at all)")
	}
}

func integerize(m *traffic.Matrix) {
	for _, p := range m.Pairs() {
		m.Set(p, float64(int(m.Get(p))))
	}
}
