package wave_test

import (
	"fmt"

	"iris/internal/wave"
)

// ExamplePackDC shows the §4.3 fiber accounting: a DC whose demands sum to
// exactly two fibers' worth still needs three fibers, because the second
// destination's fraction cannot share the first destination's fiber.
func ExamplePackDC() {
	fibers, err := wave.PackDC([]wave.Demand{
		{Dst: 1, Wavelengths: 70},
		{Dst: 2, Wavelengths: 10},
	}, 40)
	if err != nil {
		panic(err)
	}
	for _, f := range fibers {
		fmt.Printf("fiber to DC%d: %d live, %d ASE-filled\n",
			f.Dst, len(f.Slots), len(wave.ASEFill(f, 40)))
	}
	// Output:
	// fiber to DC1: 40 live, 0 ASE-filled
	// fiber to DC1: 30 live, 10 ASE-filled
	// fiber to DC2: 10 live, 30 ASE-filled
}
