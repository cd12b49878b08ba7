// Failover: demonstrates the OC4 guarantee — a plan with 2-cut tolerance
// admits the full hose traffic of every DC pair that keeps a path, through
// any two simultaneous duct cuts, while a 0-tolerance plan loses capacity
// in some of them.
//
//	go run ./examples/failover
package main

import (
	"errors"
	"fmt"
	"io"
	"log"
	"os"
	"sort"

	"iris/internal/chaos"
	"iris/internal/core"
	"iris/internal/fibermap"
	"iris/internal/optics"
	"iris/internal/plan"
)

func main() {
	log.SetFlags(0)
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run prints the demonstration to w and fails unless the tolerant plan
// passes every scenario.
func run(w io.Writer) error {
	const seed = 3
	gcfg := fibermap.DefaultGen()
	gcfg.Seed = seed
	m := fibermap.Generate(gcfg)
	pcfg := fibermap.DefaultPlace()
	pcfg.Seed, pcfg.N = seed, 6
	dcs, err := fibermap.PlaceDCs(m, pcfg)
	if err != nil {
		return err
	}
	caps := make(map[int]int, len(dcs))
	for _, dc := range dcs {
		caps[dc] = 8
	}

	region := core.Region{Map: m, Capacity: caps, Lambda: 40}
	tolerantDep, err := core.Plan(region, core.Options{MaxFailures: 2})
	if err != nil {
		return err
	}
	fragileDep, err := core.Plan(region, core.Options{MaxFailures: 0})
	if err != nil {
		return err
	}
	tolerant, fragile := tolerantDep.Plan, fragileDep.Plan
	fmt.Fprintf(w, "6-DC region: 2-cut-tolerant plan leases %d fiber-pairs, fragile plan %d\n",
		tolerant.TotalFiberPairs(), fragile.TotalFiberPairs())

	// Exhaustively audit both plans: under every scenario of up to two
	// cuts, every still-connected DC pair must get its full hose demand
	// within the fiber the plan leased.
	scenarios := chaos.EnumerateCuts(m, 2)
	admissible := func(pl *plan.Plan) int {
		n := 0
		for _, res := range chaos.NewAuditor(pl).Run(scenarios, 1) {
			if res.Admissible {
				n++
			}
		}
		return n
	}
	okTolerant, okFragile := admissible(tolerant), admissible(fragile)
	fmt.Fprintf(w, "audited %d failure scenarios of up to two cuts: tolerant plan admissible in %d, fragile plan in %d\n",
		len(scenarios), okTolerant, okFragile)
	if okTolerant != len(scenarios) {
		return errors.New("FAIL: the tolerant plan cannot carry the hose traffic in some scenario")
	}

	// Show a concrete double cut: kill the two ducts carrying the most
	// fiber (the lower duct ID wins a tie) and re-route every pair on the
	// tolerant plan's evaluator.
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
	fmt.Fprintf(w, "\ncutting the two busiest ducts (%d and %d, %d+%d fiber-pairs):\n",
		worst1, worst2, pairsOf(worst1), pairsOf(worst2))
	ev := tolerant.NewEvaluator()
	ev.Cut.Set([]int{worst1, worst2})
	for _, r := range ev.Route() {
		a, b := m.Nodes[r.Pair.A].Name, m.Nodes[r.Pair.B].Name
		if !r.Routed() {
			fmt.Fprintf(w, "  %s-%s physically disconnected by the cuts\n", a, b)
			continue
		}
		fmt.Fprintf(w, "  %s-%s re-routes over %.1f km (SLA %.0f km: %v)\n",
			a, b, r.TotalKM, optics.MaxPathKM, r.TotalKM <= optics.MaxPathKM)
	}
	return nil
}
