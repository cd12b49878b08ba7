package main

import (
	"fmt"
	"runtime"
	"time"
)

// budget bounds a measured loop: by wall time when run from the command
// line, by operation count in tests, where counts must repeat exactly.
type budget struct {
	d   time.Duration
	ops int
	// ref, when set, is sampled between operations (see reference.go).
	ref *reference
}

func (b budget) done(start time.Time, n int) bool {
	b.ref.sample()
	if b.ops > 0 && n >= b.ops {
		return true
	}
	return b.d > 0 && time.Since(start) >= b.d
}

// part returns the budget scaled by num/den, at least one operation.
func (b budget) part(num, den int) budget {
	out := budget{d: b.d * time.Duration(num) / time.Duration(den), ref: b.ref}
	if b.ops > 0 {
		out.ops = (b.ops*num + den - 1) / den
	}
	return out
}

// runConfig is one invocation of one workload.
type runConfig struct {
	seed   int64
	budget budget
	// warm is how many operations run before timing starts.
	warm int
	// setups is how many times set-up is repeated for its median.
	setups int
	// rec is non-nil on the traced run.
	rec *recorder
}

// checks counts operations attempted and failed; every output check of a
// workload goes through it, so one failure both shows in the result line
// and makes the process exit non-zero.
type checks struct {
	attempted int
	failed    int
	reasons   []string
}

// maxReasons bounds how many failure messages are kept for the report.
const maxReasons = 8

func (c *checks) attempt() { c.attempted++ }

func (c *checks) fail(format string, args ...any) {
	c.failed++
	if len(c.reasons) < maxReasons {
		c.reasons = append(c.reasons, fmt.Sprintf(format, args...))
	}
}

// expect counts one attempted check and fails it unless ok.
func (c *checks) expect(ok bool, format string, args ...any) {
	c.attempt()
	if !ok {
		c.fail(format, args...)
	}
}

// result is what one run of one workload reports.
type result struct {
	checks
	// values holds every metric the run measured, by name. The traced run
	// fills per-layer names, the untraced run end-to-end names.
	values map[string]float64
	// detail lines are printed above the result line for a human reader.
	detail []string
}

func newResult() *result { return &result{values: make(map[string]float64)} }

func (r *result) set(name string, v float64) { r.values[name] = v }

func (r *result) note(format string, args ...any) {
	r.detail = append(r.detail, fmt.Sprintf(format, args...))
}

// opStats turns the per-operation CPU times of a measured window into the
// end-to-end metrics every workload reports. busy is the time spent inside
// the program under test over the whole window — every operation, sampled
// or not — so the rate leaves out the benchmark's own checking.
func (r *result) opStats(what string, ms []float64, busy time.Duration) {
	s := sorted(ms)
	rate := float64(len(s)) / busy.Seconds()
	r.set("op_p50_ms", median(s))
	r.set("op_p95_ms", percentile(s, 950))
	r.set("ops_per_s", rate)
	r.note("%s ms: %s, %.2f/s over %.2fs busy", what, summarize(ms), rate, busy.Seconds())
}

// medianSetup runs setup cfg.setups times, tearing down all but the last
// result, and returns the last result with the median set-up time.
func medianSetup[T any](n int, setup func() (T, error), teardown func(T)) (T, float64, error) {
	var (
		last T
		secs []float64
	)
	if n < 1 {
		n = 1
	}
	for i := 0; i < n; i++ {
		if i > 0 {
			teardown(last)
		}
		t0 := now()
		v, err := setup()
		if err != nil {
			var zero T
			return zero, 0, err
		}
		secs = append(secs, since(t0).Seconds())
		last = v
	}
	return last, median(secs), nil
}

// mallocs reads the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// share is part/whole, 0 of nothing.
func share(part, whole int) float64 {
	if whole == 0 {
		return 0
	}
	return float64(part) / float64(whole)
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func usOf(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
