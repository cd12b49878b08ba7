// Command irischaos audits a planned region's survivability against
// generated failure scenarios: exhaustive or sampled duct-cut sets,
// correlated hut/DC/amplifier-site losses, and geo-radius events.
//
// Usage:
//
//	irischaos [-toy] [-seed N] [-dcs N] [-capacity F] [-lambda L] [-failures K]
//	          [-mode exhaustive|sample|huts|dcs|amps|geo]
//	          [-cuts D] [-samples N] [-k K] [-radius KM] [-events N]
//	          [-format text|csv|json] [-parallel W] [-assert]
//
// -toy, -seed and -dcs name the region as every binary reads them
// (fibermap.Spec: seed 1, 8 DCs by default); -seed also seeds the sample
// and geo draws. Every DC gets -capacity fiber-pairs (default 10) of
// -lambda wavelengths (default 40), as at bring-up.
//
// The default run exhaustively audits every cut set up to -cuts ducts. With
// -assert the exit status is non-zero unless every audited scenario is hose
// admissible — the planner's k-failure guarantee, checked end to end — which
// makes the command usable as a CI gate.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"iris/internal/chaos"
	"iris/internal/core"
	"iris/internal/fibermap"
)

// main runs without a signal context: an audit takes none, so catching
// SIGINT would only stop Ctrl-C from ending it.
func main() {
	os.Exit(exitCode(run(context.Background(), os.Args, os.Stdout, os.Stderr)))
}

// errNotAdmissible is -assert's failure, the one that exits 1.
var errNotAdmissible = errors.New("not hose admissible")

// exitCode is run's error as the process's exit status: 0 on success and
// for -h, 1 when -assert finds a scenario that is not hose admissible, 2
// for a bad command line or any other failure.
func exitCode(err error) int {
	switch {
	case err == nil || errors.Is(err, flag.ErrHelp):
		return 0
	case errors.Is(err, errNotAdmissible):
		return 1
	}
	return 2
}

// run is irischaos with its command line (args[0] is the program name) and
// its two output streams: the report goes to stdout, a failure to stderr.
func run(_ context.Context, args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet(args[0], flag.ContinueOnError)
	fs.SetOutput(stderr)
	spec := fibermap.DefaultSpec()
	spec.RegisterFlags(fs)
	var (
		capacity = fs.Int("capacity", 10, "per-DC hose capacity in fiber-pairs")
		lambda   = fs.Int("lambda", 40, "wavelengths per fiber")
		failures = fs.Int("failures", 2, "plan's duct-cut tolerance (MaxFailures)")
		mode     = fs.String("mode", "exhaustive", "scenario generator: exhaustive, sample, huts, dcs, amps or geo")
		cuts     = fs.Int("cuts", 2, "exhaustive audit depth (max simultaneous cuts)")
		samples  = fs.Int("samples", 100, "scenarios to draw in sample mode")
		k        = fs.Int("k", 2, "cuts per sampled scenario")
		radius   = fs.Float64("radius", 6, "geo event radius in km")
		events   = fs.Int("events", 20, "geo events to draw")
		format   = fs.String("format", "text", "output format: text, csv or json")
		parallel = fs.Int("parallel", 0, "audit workers: 0 = GOMAXPROCS, 1 = serial")
		assert   = fs.Bool("assert", false, "exit non-zero unless every scenario is hose admissible")
	)
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	defer func() {
		if err != nil {
			fmt.Fprintln(stderr, "irischaos:", err)
		}
	}()

	m, err := spec.Map()
	if err != nil {
		return err
	}
	dep, err := core.Plan(core.UniformRegion(m, *capacity, *lambda), core.Options{MaxFailures: *failures})
	if err != nil {
		return err
	}

	var scenarios []chaos.Scenario
	switch *mode {
	case "exhaustive":
		scenarios = chaos.EnumerateCuts(m, *cuts)
	case "sample":
		scenarios = chaos.SampleCuts(spec.Seed, m, *k, *samples)
	case "huts":
		scenarios = chaos.HutLossScenarios(m)
	case "dcs":
		scenarios = chaos.DCLossScenarios(m)
	case "amps":
		scenarios = chaos.AmpFailureScenarios(dep.Plan)
	case "geo":
		scenarios = chaos.GeoEvents(spec.Seed, m, *radius, *events)
	default:
		return fmt.Errorf("unknown mode %q", *mode)
	}
	if len(scenarios) == 0 {
		return fmt.Errorf("mode %q generated no scenarios for this region", *mode)
	}

	auditor := chaos.NewAuditor(dep.Plan)
	results := auditor.Run(scenarios, *parallel)

	switch *format {
	case "text":
		writeText(stdout, results, *failures)
	case "csv":
		writeCSV(stdout, results)
	case "json":
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown format %q", *format)
	}

	if *assert {
		for _, r := range results {
			if !r.Admissible {
				return fmt.Errorf("scenario %q is %w", r.Scenario.Name, errNotAdmissible)
			}
		}
	}
	return nil
}

func writeText(w io.Writer, results []chaos.Result, failures int) {
	fmt.Fprintf(w, "%-24s %-5s %-5s %-5s %-7s %-10s %-8s %s\n",
		"scenario", "cuts", "adm", "surv", "disc", "worst-pair", "stretch", "overloads")
	for _, r := range results {
		over := ""
		if n := len(r.Overloads) + len(r.ResidualOverloads); n > 0 {
			parts := make([]string, 0, n)
			for _, o := range r.Overloads {
				parts = append(parts, fmt.Sprintf("duct%d:%d>%d", o.DuctID, o.NeedPairs, o.HavePairs))
			}
			for _, o := range r.ResidualOverloads {
				parts = append(parts, fmt.Sprintf("duct%d:resid%d>%d", o.DuctID, o.NeedPairs, o.HavePairs))
			}
			over = strings.Join(parts, " ")
		}
		fmt.Fprintf(w, "%-24s %-5d %-5v %-5v %-7d %10.1f %8.2f %s\n",
			r.Scenario.Name, r.Cuts, r.Admissible, r.Survives,
			r.DisconnectedPairs, r.WorstPairFibers, r.MaxStretch, over)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, chaos.Summary(results))
	for _, p := range chaos.Curve(results) {
		marker := ""
		if p.Cuts > failures {
			marker = "  (past tolerance)"
		}
		fmt.Fprintf(w, "  %d cuts: %d scenarios, %.1f%% admissible, %.1f%% surviving%s\n",
			p.Cuts, p.Scenarios, 100*p.FracAdmissible(), 100*p.FracSurviving(), marker)
	}
}

func writeCSV(w io.Writer, results []chaos.Result) {
	fmt.Fprintln(w, "scenario,kind,cuts,admissible,survives,disconnected_pairs,worst_pair_fibers,max_stretch,sla_violations,overloads")
	for _, r := range results {
		fmt.Fprintf(w, "%q,%s,%d,%v,%v,%d,%.3f,%.4f,%d,%d\n",
			r.Scenario.Name, r.Scenario.Kind, r.Cuts, r.Admissible, r.Survives,
			r.DisconnectedPairs, r.WorstPairFibers, r.MaxStretch, r.SLAViolations,
			len(r.Overloads)+len(r.ResidualOverloads))
	}
}
