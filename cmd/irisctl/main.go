// Command irisctl demonstrates the Iris operational loop (§5) on the
// daemon's own write path: it builds a region with daemon.BuildRegion,
// which plans it, materialises the deployment into emulated optical
// devices served in-process over in-memory pipes (one OSS per site,
// transceiver banks at DCs, amplifiers where the planner placed them) and
// seeds its traffic feed, then steps the daemon until the feed is
// exhausted. Each commit is printed as the history lake recorded it: every
// §5.2 phase of the drained reconfiguration with the devices it reached
// and its duration, the commit's total, and the verdict of the audit that
// closes it against the states the devices' writes answered with.
//
// Usage: irisctl [flags]; irisctl -h lists them. It takes every region
// flag irisd does (daemon.RegionConfig.RegisterFlags), with -steps
// defaulting to 2; -steps 0 steps until interrupted. irisctl steps back to
// back and never probes, so -interval and -probe-interval, irisd's
// cadence, do not apply to it. SIGINT/SIGTERM stop it between commits,
// never in the middle of a change.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"iris/internal/daemon"
	"iris/internal/history"
	"iris/internal/logging"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	err := run(ctx, os.Args, os.Stdout, os.Stderr)
	stop()
	os.Exit(logging.ExitCode(err))
}

// run is irisctl with its command line (args[0] is the program name), its
// two output streams and the context whose end stops it before the next
// step: the demo goes to stdout, logs to stderr.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet(args[0], flag.ContinueOnError)
	cfg := daemon.DefaultRegionConfig()
	cfg.Steps = 2
	cfg.RegisterFlags(fs)
	log, err := logging.Parse(fs, args[1:], stderr, "irisctl")
	if err != nil {
		return err
	}
	fail := func(msg string, err error) error {
		log.Error(msg, "err", err)
		return err
	}

	cfg.Logger = log
	b, err := daemon.BuildRegion(cfg)
	if err != nil {
		return fail("bring-up failed", err)
	}
	defer b.Close()
	dep, d := b.Rig.Dep, b.Daemon
	devices := b.Rig.Testbed.Controller.Devices()
	fmt.Fprintf(stdout, "planned region: %d DCs, %d huts used, %d fiber-pairs\n",
		len(dep.Region.Map.DCs()), len(dep.Plan.UsedHuts()), dep.Plan.TotalFiberPairs())
	fmt.Fprintf(stdout, "fabric up: %d devices on in-memory pipes: %s\n", len(devices), strings.Join(devices, " "))

	// A lake replayed from -history-path holds records of earlier runs.
	var seen uint64
	if last := d.History().Summaries(1); len(last) == 1 {
		seen = last[0].Seq
	}
	for {
		if err := ctx.Err(); err != nil {
			return fail("interrupted before the next step", err)
		}
		done := d.Step()
		for _, rec := range d.History().Records(seen, math.MaxUint64) {
			printRecord(stdout, rec)
			seen = rec.Seq
		}
		if msg := d.Status().LastError; msg != "" {
			return fail("step failed", errors.New(msg))
		}
		if done {
			return nil
		}
	}
}

// printRecord prints one history record: the phases under its
// control.reconfigure span in the order they ran, each with the devices
// it sent a request to, then the record's total and its audit's verdict.
func printRecord(w io.Writer, rec history.Record) {
	fmt.Fprintf(w, "\nrecord %d: %s, reconfig %d, %d pair(s) changed\n", rec.Seq, rec.Trigger, rec.ReconfigID, len(rec.Pairs))
	var reconfigure uint64
	children := make(map[uint64]int)
	for _, ev := range rec.Spans {
		if ev.Name == "control.reconfigure" {
			reconfigure = ev.SpanID
		}
		children[ev.ParentID]++
	}
	for _, ev := range rec.Spans {
		if reconfigure != 0 && ev.ParentID == reconfigure {
			fmt.Fprintf(w, "  %-8s %3d devices in %9v\n", ev.Name, children[ev.SpanID], ev.Duration.Round(time.Microsecond))
		}
	}
	fmt.Fprintf(w, "  total: %v (paper budget: 70 ms per fiber switch)\n", rec.Duration.Round(time.Microsecond))
	if rec.Err != "" {
		fmt.Fprintf(w, "  FAILED: %s\n", rec.Err)
		return
	}
	fmt.Fprintln(w, "  audit OK: every device the change wrote answered with its intent")
}
