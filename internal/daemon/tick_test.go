package daemon

import (
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"iris/internal/core"
	"iris/internal/trace"
)

// scrape returns the daemon's /metrics exposition.
func scrape(t *testing.T, d *Daemon) string {
	t.Helper()
	var b strings.Builder
	if err := d.Registry().WriteText(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestTickLayersCoverTheChange steps the bench-sized region (seed 1, 20
// DCs) under a tracer: a committed change's layer spans cover at least
// 90 % of its root (the median change's; none covers more than all of
// it), every span's self time is non-negative, and the layers are
// exported. An untraced daemon exports none of it.
func TestTickLayersCoverTheChange(t *testing.T) {
	cfg := DefaultRegionConfig()
	cfg.Toy, cfg.Seed, cfg.DCs, cfg.OSSDelay = false, 1, 20, 0
	b, err := BuildRegion(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Close)
	d := b.Daemon
	d.ProbeOnce()
	var coverage []float64
	for i := 0; i < 12; i++ {
		before := d.Status().LastReconfigID
		d.Step()
		id := d.Status().LastReconfigID
		if id == before {
			continue
		}
		events := d.debugEvents(id).Events
		for i, self := range trace.SelfTimes(events) {
			if self < 0 {
				t.Errorf("reconfig %d: span %q has self time %v", id, events[i].Name, self)
			}
		}
		_, line, _ := strings.Cut(scrape(t, d), "\niris_tick_trace_coverage ")
		line, _, _ = strings.Cut(line, "\n")
		cov, err := strconv.ParseFloat(line, 64)
		if err != nil || cov < 0 || cov > 1 {
			t.Fatalf("reconfig %d: coverage %q (%v), want in [0, 1]", id, line, err)
		}
		coverage = append(coverage, cov)
	}
	if len(coverage) < 5 {
		t.Fatalf("%d commits in 12 steps, want at least 5", len(coverage))
	}
	// One change can lose a scheduling quantum between its layers on a
	// busy host; the typical one may not.
	slices.Sort(coverage)
	if median := coverage[len(coverage)/2]; median < 0.9 {
		t.Errorf("median coverage %.3f of %v, want at least 0.9", median, coverage)
	}
	metrics := scrape(t, d)
	for _, layer := range []string{"traffic.diff", "core.delta", "core.snapshot", "fabric.clone", "compile",
		"control.reconfigure", "switch", "audit", "history.record", "reconfig"} {
		if !strings.Contains(metrics, `iris_tick_seconds_count{layer="`+layer+`"}`) {
			t.Errorf("no iris_tick_seconds for layer %q", layer)
		}
	}

	cfg = DefaultRegionConfig()
	cfg.OSSDelay, cfg.TraceEvents = 0, 0
	untraced, err := BuildRegion(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(untraced.Close)
	untraced.Daemon.ProbeOnce()
	for i := 0; i < 3; i++ {
		untraced.Daemon.Step()
	}
	if m := scrape(t, untraced.Daemon); strings.Contains(m, "iris_tick_") {
		t.Error("an untraced daemon exports tick layers")
	}
}

// TestShiftSpansUntracedAllocateNothing: without a tracer, the spans a
// change adds for its shift, clone and record cost no allocation.
func TestShiftSpansUntracedAllocateNothing(t *testing.T) {
	now := time.Now()
	at := core.Timing{Start: now, Diffed: now.Add(1), Solved: now.Add(2), Snapshotted: now.Add(3)}
	var tracer *trace.Tracer
	if allocs := testing.AllocsPerRun(100, func() {
		root := tracer.StartAt(1, "reconfig", at.Start)
		shiftSpans(root, at)
		root.Child("fabric.clone").Finish()
		root.Child("history.record").Finish()
		root.Finish()
	}); allocs != 0 {
		t.Errorf("untraced change spans allocate %.0f times, want 0", allocs)
	}
}
