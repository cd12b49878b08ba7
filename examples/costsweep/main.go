// Costsweep: a miniature of the paper's §6.1 cost analysis — sweep region
// size and DC capacity over synthetic fiber maps and print how the
// EPS-to-Iris cost ratio moves with scale, reproducing the Fig. 12 trend
// that Iris's advantage grows with larger, more distributed regions.
//
//	go run ./examples/costsweep
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"iris/internal/experiments"
	"iris/internal/stats"
)

func main() {
	log.SetFlags(0)
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run prints the example to w.
func run(w io.Writer) error {
	cfg := experiments.SweepConfig{
		MapSeeds:    []int64{0, 1, 2, 3},
		Ns:          []int{5, 10, 15},
		Fs:          []int{8, 16},
		Lambdas:     []int{40},
		MaxFailures: 1,
	}
	rows, err := experiments.Sweep(cfg)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "%-6s %-4s %-4s %-12s %-12s %-10s %s\n",
		"map", "n", "f", "EPS $M/yr", "Iris $M/yr", "EPS/Iris", "in-network ports EPS:Iris")
	byN := make(map[int][]float64)
	for _, r := range rows {
		ratio := r.EPS.Total() / r.Iris.Total()
		byN[r.N] = append(byN[r.N], ratio)
		fmt.Fprintf(w, "%-6d %-4d %-4d %-12.1f %-12.1f %-10.2f %d:%d\n",
			r.MapSeed, r.N, r.F, r.EPS.Total()/1e6, r.Iris.Total()/1e6, ratio,
			r.EPS.InNetworkPortCount(), r.Iris.InNetworkPortCount())
	}

	fmt.Fprintln(w, "\nIris's advantage grows with region size (Fig. 12 trend):")
	for _, n := range cfg.Ns {
		fmt.Fprintf(w, "  n=%-3d median EPS/Iris = %.2fx\n", n, stats.Median(byN[n]))
	}
	return nil
}
