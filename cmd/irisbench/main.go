// Command irisbench regenerates the paper's evaluation: every figure and
// table has a corresponding experiment whose output prints the same
// rows/series the paper reports. DESIGN.md maps experiments to modules and
// EXPERIMENTS.md records paper-vs-measured outcomes.
//
// Usage:
//
//	irisbench [-exp all|<name>|sweep] [-full]
//
// Run irisbench -exp list (or any unknown name) to see every registered
// experiment; the set is derived from the experiment table, not a
// hand-maintained string, so a new experiment registers itself into the
// usage text.
//
// The -full flag runs the Fig. 12 sweep at the paper's scale (240
// scenarios, 2-failure tolerance; several minutes). Without it a reduced
// 24-scenario grid with 1-failure tolerance is used.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"time"

	"iris/internal/experiments"
	"iris/internal/logging"
)

// experiment is one runnable entry of the table; the -exp usage text and
// the unknown-name error are both derived from the table, so registering
// an experiment here is the single step that exposes it everywhere.
type experiment struct {
	name string
	run  func() (string, error)
}

// entry is the table row of an experiment that run computes and format
// prints.
func entry[R any](name string, run func() (R, error), format func(R) string) experiment {
	return experiment{name, func() (string, error) {
		res, err := run()
		if err != nil {
			return "", err
		}
		return format(res), nil
	}}
}

// with is the experiment run with its configuration cfg.
func with[C, R any](run func(C) (R, error), cfg C) func() (R, error) {
	return func() (R, error) { return run(cfg) }
}

// main runs without a signal context: no experiment takes one, so
// catching SIGINT would only stop Ctrl-C from ending a long sweep.
func main() {
	os.Exit(logging.ExitCode(run(context.Background(), os.Args, os.Stdout, os.Stderr)))
}

// run is irisbench with its command line (args[0] is the program name) and
// its two output streams: experiment output goes to stdout, logs to
// stderr.
func run(_ context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet(args[0], flag.ContinueOnError)
	full := fs.Bool("full", false, "run the Fig. 12 sweep at full paper scale (240 scenarios)")
	parallel := fs.Int("parallel", 0, "sweep worker count: 0 = GOMAXPROCS, 1 = serial; rows are identical at every setting")

	// The Fig. 12 cost sweep feeds three experiments; run once, it lets
	// "-exp all" (and the "sweep" alias) plan the grid once.
	sweep := sync.OnceValues(func() ([]experiments.SweepRow, error) {
		cfg := experiments.QuickSweep()
		label := "quick 24-scenario grid, 1-failure tolerance"
		if *full {
			cfg = experiments.PaperSweep()
			label = "full 240-scenario grid, 2-failure tolerance"
		}
		cfg.Parallelism = *parallel
		t0 := time.Now()
		rows, err := experiments.Sweep(cfg)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(stdout, "[cost sweep: %s, %d scenarios in %v]\n\n",
			label, len(rows), time.Since(t0).Round(time.Millisecond))
		return rows, nil
	})

	table := []experiment{
		{"fig2", func() (string, error) { return experiments.FormatFig2(experiments.Fig2()), nil }},
		entry("fig3", with(experiments.Fig3, experiments.DefaultFig3()), experiments.Fig3Result.Format),
		entry("fig6", with(experiments.Fig6, experiments.DefaultFig6()), experiments.Fig6Result.Format),
		{"fig5", func() (string, error) {
			near, far, err := experiments.Fig5(experiments.DefaultFig5())
			if err != nil {
				return "", err
			}
			return experiments.FormatFig5(near, far), nil
		}},
		{"fig7", func() (string, error) { return experiments.FormatFig7(experiments.Fig7()), nil }},
		entry("toy", experiments.Toy, experiments.ToyResult.Format),
		{"fig9", func() (string, error) { return experiments.FormatFig9(experiments.Fig9()), nil }},
		entry("fig12", sweep, func(rows []experiments.SweepRow) string {
			return experiments.FormatFig12(experiments.ExtractRatios(rows))
		}),
		entry("appa", sweep, func(rows []experiments.SweepRow) string {
			return experiments.FormatAppendixA(experiments.ExtractRatios(rows))
		}),
		entry("appb", sweep, func(rows []experiments.SweepRow) string { return experiments.AppendixB(rows).Format() }),
		entry("fig14", with(experiments.Fig14, experiments.DefaultFig14()), experiments.Fig14Result.Format),
		entry("fig17", with(experiments.Fig17, experiments.DefaultFig17()), experiments.FormatFig17),
		entry("fig17r", with(experiments.Fig17Region, experiments.DefaultFig17Region()), experiments.FormatFig17Region),
		entry("fig18", with(experiments.Fig18, experiments.DefaultFig18()), experiments.FormatFig18),
		entry("central", with(experiments.CentralVsDistributed, experiments.DefaultCentral()), experiments.FormatCentral),
		entry("clos", with(experiments.ClosAblation, experiments.DefaultClos()), experiments.FormatClos),
		entry("wss", with(experiments.WSSAblation, experiments.DefaultWSS()), experiments.FormatWSS),
		entry("load", with(experiments.LoadSweep, experiments.DefaultLoadSweep()), experiments.FormatLoadSweep),
		entry("robust", with(experiments.RobustAblation, experiments.DefaultRobustAblation()), experiments.FormatRobustAblation),
		entry("chaos", func() (*experiments.SurvivabilityResult, error) {
			cfg := experiments.DefaultSurvivability()
			cfg.Parallelism = *parallel
			return experiments.Survivability(cfg)
		}, (*experiments.SurvivabilityResult).Format),
	}

	names := make([]string, len(table))
	for i, e := range table {
		names[i] = e.name
	}
	// The usage line is assembled from the table so it cannot go stale.
	exp := fs.String("exp", "all",
		"experiment to run (all, sweep = fig12+appa+appb, or one of: "+strings.Join(names, ", ")+")")
	log, err := logging.Parse(fs, args[1:], stderr, "irisbench")
	if err != nil {
		return err
	}

	wants := func(name string) bool {
		if *exp == "all" || *exp == name {
			return true
		}
		// "sweep" selects the three experiments that share the Fig. 12
		// cost sweep, running it once.
		if *exp == "sweep" && (name == "fig12" || name == "appa" || name == "appb") {
			return true
		}
		return false
	}
	ran := 0
	for _, e := range table {
		if !wants(e.name) {
			continue
		}
		ran++
		t0 := time.Now()
		out, err := e.run()
		if err != nil {
			log.Error(e.name+" failed", "err", err)
			return err
		}
		fmt.Fprintln(stdout, strings.TrimRight(out, "\n"))
		fmt.Fprintf(stdout, "[%s completed in %v]\n\n", e.name, time.Since(t0).Round(time.Millisecond))
	}

	if ran == 0 {
		log.Error("unknown experiment", "exp", *exp,
			"known", "all, sweep, "+strings.Join(names, ", "))
		return fmt.Errorf("unknown experiment %q", *exp)
	}
	return nil
}
