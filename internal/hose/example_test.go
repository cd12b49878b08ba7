package hose_test

import (
	"fmt"
	"math"

	"iris/internal/hose"
)

// ExampleWorstCaseLoad shows the §4.1 double-counting pitfall: DC A
// appears in two pairs crossing the same duct, so a naive per-pair sum
// over-provisions while the hose-model optimum respects A's capacity.
func ExampleWorstCaseLoad() {
	caps := map[int]float64{0: 4, 1: 10, 2: 10}
	pairs := []hose.Pair{{A: 0, B: 1}, {A: 0, B: 2}}
	fmt.Printf("naive: %.0f fibers\n", math.Min(caps[0], caps[1])+math.Min(caps[0], caps[2]))
	fmt.Printf("hose:  %.0f fibers\n", hose.WorstCaseLoad(caps, pairs))
	// Output:
	// naive: 8 fibers
	// hose:  4 fibers
}
