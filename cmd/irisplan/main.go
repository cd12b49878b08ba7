// Command irisplan plans a regional DCI network end to end: it generates
// (or loads the paper's toy) region, runs the Iris planning pipeline of §4,
// and prints the resulting topology, optical equipment, and the cost of
// implementing it under each switching architecture.
//
// Usage:
//
//	irisplan [-toy] [-seed N] [-seeds N,M,...] [-dcs N] [-capacity F] [-lambda L] [-failures K] [-parallel W] [-v]
//
// -toy, -seed and -dcs name the region as every binary reads them
// (fibermap.Spec: seed 1, 8 DCs by default), so irisplan -seed N -dcs M
// plans the region irisd -toy=false -seed N -dcs M brings up. Every DC
// gets -capacity fiber-pairs (default 10, bring-up's) of -lambda
// wavelengths (default 40), the toy's and a loaded map's DCs too.
//
// With -seeds, one region per listed seed is planned — concurrently,
// bounded by -parallel — and each deployment is printed in seed order.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"iris/internal/core"
	"iris/internal/fibermap"
	"iris/internal/hose"
	"iris/internal/logging"
	"iris/internal/parallel"
)

// main runs without a signal context: planning takes none, so catching
// SIGINT would only stop Ctrl-C from ending it.
func main() {
	os.Exit(logging.ExitCode(run(context.Background(), os.Args, os.Stdout, os.Stderr)))
}

// run is irisplan with its command line (args[0] is the program name) and
// its two output streams: the plan report goes to stdout, logs to stderr.
func run(_ context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet(args[0], flag.ContinueOnError)
	spec := fibermap.DefaultSpec()
	spec.RegisterFlags(fs)
	var (
		seeds    = fs.String("seeds", "", "comma-separated region seeds: plan one region per seed (overrides -seed; incompatible with -toy/-load/-save)")
		capacity = fs.Int("capacity", 10, "per-DC capacity in fiber-pairs")
		lambda   = fs.Int("lambda", 40, "wavelengths per fiber")
		failures = fs.Int("failures", 2, "fiber-cut tolerance")
		workers  = fs.Int("parallel", 0, "worker count for -seeds planning: 0 = GOMAXPROCS, 1 = serial")
		load     = fs.String("load", "", "plan a region loaded from a JSON file instead of generating one")
		save     = fs.String("save", "", "write the region (generated or loaded) to a JSON file")
		verbose  = fs.Bool("v", false, "print per-duct and per-path detail")
	)
	log, err := logging.Parse(fs, args[1:], stderr, "irisplan")
	if err != nil {
		return err
	}
	fail := func(msg string, err error) error {
		log.Error(msg, "err", err)
		return err
	}

	if *seeds != "" {
		if spec.Toy || *load != "" || *save != "" {
			return fail("bad flags", errors.New("-seeds cannot be combined with -toy, -load, or -save"))
		}
		if err := planSeeds(stdout, *seeds, spec.DCs, *capacity, *lambda, *failures, *workers, *verbose); err != nil {
			return fail("multi-seed planning failed", err)
		}
		return nil
	}

	var m *fibermap.Map
	if *load != "" {
		m, err = loadMap(*load)
	} else {
		m, err = spec.Map()
	}
	if err != nil {
		return fail("region build failed", err)
	}
	if *save != "" {
		if err := saveMap(m, *save); err != nil {
			return fail("region save failed", err)
		}
	}
	dep, err := core.Plan(core.UniformRegion(m, *capacity, *lambda), core.Options{MaxFailures: *failures})
	if err != nil {
		return fail("planning failed", err)
	}
	printDeployment(stdout, dep, *verbose)
	return nil
}

// planSeeds builds one region per listed seed and plans them concurrently,
// at most workers at a time, printing each deployment in seed order.
// Planning a region is deterministic, so the output does not depend on
// workers.
func planSeeds(w io.Writer, list string, dcs, capacity, lambda, failures, workers int, verbose bool) error {
	var regions []core.Region
	var seedVals []int64
	for _, field := range strings.Split(list, ",") {
		s, err := strconv.ParseInt(strings.TrimSpace(field), 10, 64)
		if err != nil {
			return fmt.Errorf("bad seed %q: %v", field, err)
		}
		m, err := fibermap.Spec{Seed: s, DCs: dcs}.Map()
		if err != nil {
			return fmt.Errorf("seed %d: %v", s, err)
		}
		seedVals = append(seedVals, s)
		regions = append(regions, core.UniformRegion(m, capacity, lambda))
	}
	deps := make([]*core.Deployment, len(regions))
	err := parallel.ForEach(len(regions), workers, func(i int) error {
		dep, err := core.Plan(regions[i], core.Options{MaxFailures: failures})
		if err != nil {
			return fmt.Errorf("seed %d: %w", seedVals[i], err)
		}
		deps[i] = dep
		return nil
	})
	if err != nil {
		return err
	}
	for i, dep := range deps {
		fmt.Fprintf(w, "=== seed %d ===\n", seedVals[i])
		printDeployment(w, dep, verbose)
		fmt.Fprintln(w)
	}
	return nil
}

func loadMap(path string) (*fibermap.Map, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return fibermap.ReadJSON(f)
}

func saveMap(m *fibermap.Map, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return m.WriteJSON(f)
}

func printDeployment(w io.Writer, dep *core.Deployment, verbose bool) {
	pl := dep.Plan
	m := dep.Region.Map
	fmt.Fprintf(w, "region: %d DCs, %d huts, %d ducts; λ=%d, failure tolerance %d (%d scenarios)\n",
		len(m.DCs()), len(m.Huts()), len(m.Ducts), dep.Region.Lambda,
		pl.Input.MaxFailures, pl.NScena)

	fmt.Fprintf(w, "\ntopology & capacity (Algorithm 1 + §4.3):\n")
	fmt.Fprintf(w, "  fiber-pairs: %d base + %d residual/cut-through = %d total\n",
		pl.BaseFiberPairs(), pl.TotalFiberPairs()-pl.BaseFiberPairs(), pl.TotalFiberPairs())
	fmt.Fprintf(w, "  used huts:   %d of %d\n", len(pl.UsedHuts()), len(m.Huts()))
	fmt.Fprintf(w, "  amplifiers:  %d across %d sites\n", pl.TotalAmps(), len(pl.Amps))
	fmt.Fprintf(w, "  cut-throughs: %d links\n", len(pl.Cuts))
	if len(pl.SLA) > 0 {
		fmt.Fprintf(w, "  WARNING: %d DC pairs exceed the SLA distance in some failure scenario\n", len(pl.SLA))
	}
	if len(pl.Viol) > 0 {
		fmt.Fprintf(w, "  WARNING: %d optical-constraint violations:\n", len(pl.Viol))
		for _, v := range pl.Viol {
			fmt.Fprintf(w, "    %s\n", v)
		}
	}

	fmt.Fprintf(w, "\nannual cost (paper §3.3 prices):\n")
	fmt.Fprintf(w, "  %-10s $%12.0f  (%d transceivers, %d fiber-pairs)\n",
		"EPS", dep.EPS.Total(), dep.EPS.TransceiverCount(), dep.EPS.FiberPairs)
	fmt.Fprintf(w, "  %-10s $%12.0f  (%d transceivers, %d fiber-pairs, %d OSS ports, %d amps)\n",
		"Iris", dep.Iris.Total(), dep.Iris.TransceiverCount(), dep.Iris.FiberPairs,
		dep.Iris.OSSPorts, dep.Iris.Amplifiers)
	fmt.Fprintf(w, "  %-10s $%12.0f  (%d OXC ports)\n", "Hybrid", dep.Hybrid.Total(), dep.Hybrid.OXCPorts)
	fmt.Fprintf(w, "  EPS / Iris = %.2fx\n", dep.EPS.Total()/dep.Iris.Total())

	if !verbose {
		return
	}

	fmt.Fprintf(w, "\nper-duct provisioning:\n")
	ductIDs := make([]int, 0, len(pl.Ducts))
	for id := range pl.Ducts {
		ductIDs = append(ductIDs, id)
	}
	sort.Ints(ductIDs)
	fmt.Fprintf(w, "  %-6s %-18s %-8s %-6s %-10s %s\n", "duct", "endpoints", "km", "base", "residual", "cut-through")
	for _, id := range ductIDs {
		du := pl.Ducts[id]
		d := m.Ducts[id]
		fmt.Fprintf(w, "  %-6d %-18s %-8.1f %-6d %-10d %d\n", id,
			fmt.Sprintf("%s-%s", m.Nodes[d.A].Name, m.Nodes[d.B].Name),
			d.FiberKM, du.BasePairs, du.ResidualPairs, du.CutThroughPairs)
	}

	fmt.Fprintf(w, "\nshortest paths (failure-free):\n")
	var pairs []hose.Pair
	for p := range pl.Paths {
		pairs = append(pairs, p)
	}
	hose.SortPairs(pairs)
	for _, p := range pairs {
		info := pl.Paths[p]
		fmt.Fprintf(w, "  %s → %s: %.1f km, %d hops", m.Nodes[p.A].Name, m.Nodes[p.B].Name,
			info.TotalKM, len(info.Ducts))
		if len(info.AmpNodes) > 0 {
			fmt.Fprintf(w, ", amp at %s", m.Nodes[info.AmpNodes[0]].Name)
		}
		if len(info.Bypassed) > 0 {
			fmt.Fprintf(w, ", bypasses %d switches", len(info.Bypassed))
		}
		fmt.Fprintln(w)
	}
}
