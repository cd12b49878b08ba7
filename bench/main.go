// Command bench is the repository's benchmark: six closed-loop workloads
// over the converge tick, the read plane, the planner and the fleet, each
// driven only through public functions of internal/*. One invocation runs
// one workload once, untraced (end-to-end metrics) or traced (per-layer
// metrics), and prints one JSON result line last. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// workload is one fixed set of inputs the benchmark runs.
type workload struct {
	name string
	// warm is how many operations run before timing starts.
	warm int
	// setups is how many times a run repeats its set-up to report the
	// median: more where set-up is cheap, fewer where it takes seconds.
	setups int
	run    func(runConfig) (*result, error)
}

// workloads are listed in the order of BENCHMARK.json.
var workloads = []workload{
	{"tick-dense", 30, 7, func(c runConfig) (*result, error) { return runTick(c, feedDense) }},
	{"tick-sparse", 30, 7, func(c runConfig) (*result, error) { return runTick(c, feedSparse) }},
	{"tick-read", 30, 7, runTickRead},
	{"api-mix", 2, 5, runAPIMix},
	{"plan-audit", 2, 7, runPlanAudit},
	{"fleet-round", 20, 3, runFleetRound},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runOne runs a workload once and completes its metric set: every name of
// the mode's catalogue is present, zero where the workload has no such
// layer, and every timing is scaled to the reference machine (see
// reference.go). Detail lines keep the CPU times as measured.
func runOne(w workload, cfg runConfig) (*result, error) {
	res, err := w.run(cfg)
	if err != nil {
		return nil, err
	}
	scale := cfg.budget.ref.scale()
	for _, m := range catalogue(cfg.rec != nil) {
		v := res.values[m.name]
		switch m.unit {
		case "us", "ms", "s":
			v *= scale
		case "1/s":
			v /= scale
		}
		res.values[m.name] = v
	}
	return res, nil
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of a run's standard output.
type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func (r *result) line(cat []metric) resultLine {
	out := resultLine{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metricOut, len(cat)),
	}
	for _, m := range cat {
		out.Metrics[m.name] = metricOut{Value: r.values[m.name], Unit: m.unit}
	}
	return out
}

// options are the command line.
type options struct {
	seed     int64
	seconds  int
	traceOut string
}

// runAndReport runs one workload in one mode, prints every metric by name
// with its unit and the result line last, and reports whether every
// output check passed.
func runAndReport(w workload, traced bool, o options) (bool, error) {
	cfg := runConfig{
		seed:   o.seed,
		budget: budget{d: time.Duration(o.seconds) * time.Second, ref: newReference()},
		warm:   w.warm,
		setups: w.setups,
	}
	if traced {
		cfg.rec = newRecorder()
	}
	wall0, cpu0 := time.Now(), now()
	res, err := runOne(w, cfg)
	if err != nil {
		return false, fmt.Errorf("%s: %w", w.name, err)
	}
	fmt.Printf("# %s seed=%d seconds=%d traced=%v\n", w.name, o.seed, o.seconds, traced)
	fmt.Printf("# the run took %.2fs of wall time and %.2fs of CPU time\n", time.Since(wall0).Seconds(), since(cpu0).Seconds())
	ref := cfg.budget.ref
	fmt.Printf("# lines starting with # give CPU time as measured; the reference kernel took %.1f us (median of %d), so the table and the result line give it times %.4f\n",
		median(ref.us), len(ref.us), ref.scale())
	if traced {
		path := o.traceOut
		if path == "" {
			path = filepath.Join(".bench_build", "trace-"+w.name+".jsonl")
		}
		if err := cfg.rec.writeTo(path); err != nil {
			return false, fmt.Errorf("write spans: %w", err)
		}
		fmt.Printf("# %d spans written to %s\n", len(cfg.rec.spans), path)
	}
	for _, d := range res.detail {
		fmt.Println("# " + d)
	}
	cat := catalogue(traced)
	for _, m := range cat {
		fmt.Printf("%-32s %14.4f %s\n", m.name, res.values[m.name], m.unit)
	}
	for _, why := range res.reasons {
		fmt.Println("# FAILED: " + why)
	}
	line, err := json.Marshal(res.line(cat))
	if err != nil {
		return false, err
	}
	fmt.Println(string(line))
	return res.failed == 0, nil
}

func main() {
	var o options
	name := flag.String("workload", "", "workload to run, one of the names in BENCHMARK.json; empty runs all of them, untraced then traced")
	traced := flag.Int("trace", 0, "1 runs the traced variant and reports the per-layer metrics")
	flag.Int64Var(&o.seed, "seed", 1, "seed for the feed's draws, the request rotation and the sampled cuts")
	flag.IntVar(&o.seconds, "seconds", 10, "length of the measured window")
	flag.StringVar(&o.traceOut, "trace-out", "", "where a traced run writes its spans (default .bench_build/trace-<workload>.jsonl)")
	flag.Parse()
	// One processor runs every goroutine: the driver, the device servers,
	// the fleet's workers and the collector. On two virtual cores of a
	// shared host a second running thread is taken away and given back at
	// the host's whim, and each hand-off between threads costs kernel time
	// that differs several-fold from run to run (see clock.go).
	runtime.GOMAXPROCS(1)

	type job struct {
		w      workload
		traced bool
	}
	var jobs []job
	if *name == "" {
		for _, w := range workloads {
			jobs = append(jobs, job{w, false}, job{w, true})
		}
	} else {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			os.Exit(2)
		}
		jobs = []job{{w, *traced != 0}}
	}
	allOK := true
	for _, j := range jobs {
		ok, err := runAndReport(j.w, j.traced, o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
		allOK = allOK && ok
	}
	if !allOK {
		os.Exit(1)
	}
}
