// Command irisctl demonstrates the full Iris operational loop (§5): it
// plans a region, materialises the deployment into emulated optical
// devices served on private Unix sockets (one OSS per site, transceiver
// banks at DCs, amplifiers where the planner placed them), then acts as the
// centralized controller — allocating circuits for a traffic matrix,
// executing the drained reconfiguration a traffic shift requires, and
// auditing device state against intent.
//
// Usage:
//
//	irisctl [-toy] [-seed N] [-dcs N] [-oss-delay 20ms]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"iris/internal/control"
	"iris/internal/core"
	"iris/internal/fabric"
	"iris/internal/hose"
	"iris/internal/logging"
	"iris/internal/optics"
	"iris/internal/traffic"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	err := run(ctx, os.Args, os.Stdout, os.Stderr)
	stop()
	os.Exit(logging.ExitCode(err))
}

// run is irisctl with its command line (args[0] is the program name), its
// two output streams and the context whose end cancels a reconfiguration
// in flight: the demo goes to stdout, logs to stderr.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet(args[0], flag.ContinueOnError)
	toy := fs.Bool("toy", true, "use the paper's Fig. 10 toy region")
	seed := fs.Int64("seed", 1, "generator seed when not using the toy")
	dcs := fs.Int("dcs", 5, "DCs to place when not using the toy")
	ossDelay := fs.Duration("oss-delay", time.Duration(optics.OSSSwitchTimeMS)*time.Millisecond,
		"emulated OSS switching time")
	log, err := logging.Parse(fs, args[1:], stderr, "irisctl")
	if err != nil {
		return err
	}
	fail := func(msg string, err error) error {
		log.Error(msg, "err", err)
		return err
	}

	rig, err := fabric.BringUp(fabric.BringUpConfig{
		Toy: *toy, Seed: *seed, DCs: *dcs, OSSDelay: *ossDelay,
	})
	if err != nil {
		return fail("bring-up failed", err)
	}
	defer rig.Close()
	dep, fab, tb := rig.Dep, rig.Fab, rig.Testbed

	m := dep.Region.Map
	fmt.Fprintf(stdout, "planned region: %d DCs, %d huts used, %d fiber-pairs\n",
		len(m.DCs()), len(dep.Plan.UsedHuts()), dep.Plan.TotalFiberPairs())
	fmt.Fprintf(stdout, "fabric up: %d devices on private Unix sockets\n", len(tb.Controller.Devices()))
	for _, name := range tb.Controller.Devices() {
		res, err := tb.Controller.Call(name, "ping", nil)
		if err != nil {
			return fail("device ping failed", err)
		}
		fmt.Fprintf(stdout, "  %-14s %v\n", name, res["kind"])
	}

	// Initial traffic matrix and circuit setup.
	dcIDs := m.DCs()
	tm := traffic.NewMatrix(dcIDs)
	tm.Set(hose.Pair{A: dcIDs[0], B: dcIDs[1]}, 60)
	if len(dcIDs) > 2 {
		tm.Set(hose.Pair{A: dcIDs[0], B: dcIDs[2]}, 45)
	}
	alloc, err := dep.Allocate(tm)
	if err != nil {
		return fail("allocation failed", err)
	}
	fmt.Fprintln(stdout, "\nestablishing circuits for the initial matrix...")
	if err := executeTarget(ctx, stdout, tb, fab, alloc); err != nil {
		return fail("reconfiguration failed", err)
	}

	// Traffic shift: the first pair cools, the second heats up.
	tm.Set(hose.Pair{A: dcIDs[0], B: dcIDs[1]}, 20)
	if len(dcIDs) > 2 {
		tm.Set(hose.Pair{A: dcIDs[0], B: dcIDs[2]}, 95)
	}
	alloc2, err := dep.Allocate(tm)
	if err != nil {
		return fail("allocation failed", err)
	}
	moves := core.Diff(alloc, alloc2)
	fmt.Fprintf(stdout, "\ntraffic shift: %d circuit move(s); reconfiguring...\n", len(moves))
	if err := executeTarget(ctx, stdout, tb, fab, alloc2); err != nil {
		return fail("reconfiguration failed", err)
	}

	fmt.Fprintln(stdout, "\nauditing device state against controller intent...")
	if err := tb.Controller.Audit(fab.Expected()); err != nil {
		return fail("audit FAILED", err)
	}
	fmt.Fprintf(stdout, "audit OK: %d active circuits match intent\n", fab.CircuitCount())
	return nil
}

// executeTarget compiles alloc and runs it on the devices, printing each
// phase.
func executeTarget(ctx context.Context, w io.Writer, tb *control.Testbed, fab *fabric.Fabric, alloc core.Allocation) error {
	ch, err := fab.CompileTarget(alloc)
	if err != nil {
		return fmt.Errorf("compile: %w", err)
	}
	rep, err := tb.Controller.Reconfigure(ctx, ch)
	if err != nil {
		return fmt.Errorf("reconfigure: %w", err)
	}
	for _, p := range rep.Phases {
		fmt.Fprintf(w, "  %-8s %4d ops in %8v\n", p.Name, p.Ops, p.Duration.Round(time.Microsecond))
	}
	fmt.Fprintf(w, "  total: %v (paper budget: 70 ms per fiber switch)\n", rep.Total.Round(time.Microsecond))
	return nil
}
