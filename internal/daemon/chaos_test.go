package daemon

import (
	"context"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"iris/internal/chaos"
	"iris/internal/history"
)

// TestChaosCycleIDsWithTracingOff assembles an irisd region with its
// flight recorder off, converges twice and runs one chaos cycle: the
// cycle's ID comes from the same space as the converge records', so every
// record in the lake has its own ID and the cycle's ID finds its record.
func TestChaosCycleIDsWithTracingOff(t *testing.T) {
	clock := newFakeClock()
	cfg := DefaultRegionConfig()
	cfg.Chaos = true
	cfg.TraceEvents = 0
	cfg.OSSDelay = 0
	cfg.FailureThreshold = 2
	cfg.BackoffBase = 100 * time.Millisecond
	cfg.BackoffMax = 400 * time.Millisecond
	cfg.Now = clock.Now
	b, err := BuildRegion(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Close)
	if b.Tracer != nil {
		t.Fatal("TraceEvents 0 built a tracer")
	}
	d := b.Daemon
	d.ProbeOnce()
	d.Step()
	d.Step()
	if b.History.Len() == 0 {
		t.Fatal("two steps recorded nothing")
	}

	pump := func() {
		clock.advance(120 * time.Millisecond)
		d.ProbeOnce()
		if st := d.Status(); st.Healthy && !st.NeedRepair {
			d.Step()
		}
	}
	sc := chaos.Cut(hubDuctID(t, b.Rig.Dep.Region.Map))
	res, err := d.ChaosCycle(context.Background(), sc, CycleOptions{Pump: pump, Timeout: 20 * time.Second})
	if err != nil {
		t.Fatalf("chaos cycle: %v", err)
	}

	seen := make(map[uint64]history.Trigger)
	for _, rec := range b.History.Records(0, math.MaxUint64) {
		if prev, dup := seen[rec.ReconfigID]; dup {
			t.Errorf("ID %d names a %s and a %s record", rec.ReconfigID, prev, rec.Trigger)
		}
		seen[rec.ReconfigID] = rec.Trigger
	}
	if rec, ok := b.History.Get(res.TraceID); !ok || rec.Trigger != history.TriggerChaos {
		t.Fatalf("Get(%d) = %s record (found %v), want the chaos cycle's", res.TraceID, rec.Trigger, ok)
	}
}

// TestChaosCycleEndsWithItsClient posts a cycle to /debug/chaos/cycle and
// hangs up while it waits in detect (nothing probes the region, so no
// breaker ever opens): the cycle restores its fault, counts as a failure
// and records a failed chaos-cycle record.
func TestChaosCycleEndsWithItsClient(t *testing.T) {
	h := newHistoryRig(t, [][2]float64{{60, 45}})
	h.d.ProbeOnce()
	h.d.Step()
	before := h.lake.Len()

	srv := httptest.NewServer(h.d.Handler())
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	duct := hubDuctID(t, h.rig.Dep.Region.Map)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/debug/chaos/cycle?scenario=cut:"+strconv.Itoa(duct), nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := srv.Client().Do(req); err == nil {
		resp.Body.Close()
		t.Fatalf("cycle answered %d before its client left", resp.StatusCode)
	} else if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("client error %v, want its deadline", err)
	}
	srv.Close() // waits for the handler, and so for the cycle, to return

	if n := h.inj.Snapshot().ActiveFaults; n != 0 {
		t.Fatalf("%d faults left active by a cancelled cycle", n)
	}
	var b strings.Builder
	if err := h.d.Registry().WriteText(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"iris_chaos_cycle_failures_total 1", "iris_chaos_cycles_total 0", "iris_chaos_restores_total 1"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	recs := h.lake.Records(0, math.MaxUint64)
	if len(recs) != before+1 {
		t.Fatalf("lake has %d records, want %d", len(recs), before+1)
	}
	rec := recs[len(recs)-1]
	if rec.Trigger != history.TriggerChaos || !strings.Contains(rec.Err, "detect") || !strings.Contains(rec.Err, context.Canceled.Error()) {
		t.Fatalf("last record = %s err %q, want a chaos cycle cancelled in detect", rec.Trigger, rec.Err)
	}
}

// TestChaosCyclesBesideRun runs running-mode chaos cycles, irisd's
// /debug/chaos/cycle, one after another while Run steps and probes a
// chaos-armed toy region every few milliseconds. The cycle's replan and
// the loop's own repair write the same devices, so every cycle succeeds
// only if they take turns. Meant for -race -count.
func TestChaosCyclesBesideRun(t *testing.T) {
	cfg := DefaultRegionConfig()
	cfg.Chaos = true
	cfg.OSSDelay = time.Millisecond
	cfg.Interval = 2 * time.Millisecond
	cfg.ProbeInterval = time.Millisecond
	cfg.FailureThreshold = 1
	cfg.BackoffBase = 5 * time.Millisecond
	cfg.BackoffMax = 20 * time.Millisecond
	b, err := BuildRegion(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Close)
	d := b.Daemon
	ctx, stop := context.WithCancel(context.Background())
	ran := make(chan error, 1)
	go func() { ran <- d.Run(ctx) }()
	defer func() {
		stop()
		if err := <-ran; err != nil {
			t.Errorf("Run = %v", err)
		}
	}()

	sc := chaos.Cut(hubDuctID(t, b.Rig.Dep.Region.Map))
	for i := range 5 {
		res, err := d.chaosCycle(ctx, sc, CycleOptions{Timeout: 10 * time.Second}, true)
		if err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
		if rec, ok := b.History.Get(res.TraceID); !ok || rec.Trigger != history.TriggerChaos {
			t.Fatalf("cycle %d: Get(%d) = %s record (found %v), want the cycle's", i, res.TraceID, rec.Trigger, ok)
		}
	}
}
