package fleet

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"iris/internal/daemon"
	"iris/internal/history"
	"iris/internal/telemetry"
)

// fakeRegion is a daemon.Region whose Step can be made to block, so the
// scheduler's isolation contract is testable without real fabrics or
// wall-clock-dependent convergence.
type fakeRegion struct {
	steps atomic.Int64
	// gate, when non-nil, blocks Step until the channel is closed.
	gate      chan struct{}
	healthy   atomic.Bool
	converged atomic.Bool
	reg       *telemetry.Registry
}

func newFakeRegion() *fakeRegion {
	f := &fakeRegion{reg: telemetry.NewRegistry()}
	f.healthy.Store(true)
	f.converged.Store(true)
	return f
}

func (f *fakeRegion) Step() bool {
	if f.gate != nil {
		<-f.gate
	}
	f.steps.Add(1)
	return false
}
func (f *fakeRegion) ProbeOnce()                    {}
func (f *fakeRegion) Healthy() bool                 { return f.healthy.Load() }
func (f *fakeRegion) ConvergedNow() bool            { return f.converged.Load() }
func (f *fakeRegion) Status() daemon.Status         { return daemon.Status{Healthy: f.healthy.Load()} }
func (f *fakeRegion) Registry() *telemetry.Registry { return f.reg }
func (f *fakeRegion) Handler() http.Handler         { return http.NotFoundHandler() }
func (f *fakeRegion) History() *history.Lake        { return nil }
func (f *fakeRegion) Demand() (daemon.DemandSummary, bool) {
	return daemon.DemandSummary{Total: 10}, true
}

// fakeFleet builds a memberless supervisor and attaches fake regions.
// Workers is pinned above the region count so a gated region's task
// occupies a pool slot without starving the pool even on 1-CPU hosts.
func fakeFleet(t *testing.T, regions ...daemon.Region) *Fleet {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Regions = len(regions)
	cfg.Workers = len(regions) + 1
	f, err := newSupervisor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range regions {
		f.members = append(f.members, &member{id: RegionID(i), r: r})
	}
	return f
}

// TestRoundSkipsBusyRegions is the isolation contract in miniature: a
// region whose step blocks indefinitely is skipped by every subsequent
// round while its siblings keep getting stepped — no round barrier, no
// head-of-line blocking.
func TestRoundSkipsBusyRegions(t *testing.T) {
	slow := newFakeRegion()
	slow.gate = make(chan struct{})
	fast0, fast1 := newFakeRegion(), newFakeRegion()
	f := fakeFleet(t, fast0, slow, fast1)

	// waitSteps waits for member i to have finished want steps. The step
	// counter is bumped inside Step, before the scheduler clears the
	// member's busy bit, so the wait is on both: a Round issued between
	// the two would skip a region that is merely finishing.
	waitSteps := func(i int, want int64) {
		t.Helper()
		m := f.members[i]
		r := m.r.(*fakeRegion)
		deadline := time.Now().Add(5 * time.Second)
		for r.steps.Load() < want || m.busy.Load() {
			if time.Now().After(deadline) {
				t.Fatalf("region %d stuck at %d steps (busy %v), want %d idle",
					i, r.steps.Load(), m.busy.Load(), want)
			}
			time.Sleep(time.Millisecond)
		}
	}
	const fastA, fastB = 0, 2 // member indices of fast0 and fast1

	// Round 1 dispatches all three; the slow one parks on its gate.
	if dispatched, _ := f.Round(); dispatched != 3 {
		t.Fatalf("round 1 dispatched %d, want 3", dispatched)
	}
	waitSteps(fastA, 1)
	waitSteps(fastB, 1)

	// Rounds 2..4: the slow region is still busy and must be skipped;
	// the fast ones keep converging at full cadence.
	for round := 2; round <= 4; round++ {
		waitSteps(fastA, int64(round-1))
		waitSteps(fastB, int64(round-1))
		if dispatched, _ := f.Round(); dispatched != 2 {
			t.Fatalf("round %d dispatched %d, want 2 (slow region skipped)", round, dispatched)
		}
	}
	waitSteps(fastA, 4)
	waitSteps(fastB, 4)
	if got := f.skippedBusy.Value(); got != 3 {
		t.Errorf("skipped-busy = %v, want 3", got)
	}
	if got := slow.steps.Load(); got != 0 {
		t.Errorf("slow region stepped %d times while gated", got)
	}

	// Release the gate: the parked task completes and the region rejoins
	// the rotation.
	close(slow.gate)
	f.Quiesce()
	if got := slow.steps.Load(); got != 1 {
		t.Errorf("slow region steps = %d after release, want 1", got)
	}
	if dispatched, _ := f.Round(); dispatched != 3 {
		t.Error("released region not rejoined")
	}
	f.Quiesce()
}

// TestRunStopsWhenAllFeedsExhaust drives Run over fakes whose feeds
// exhaust after two steps.
func TestRunStopsWhenAllFeedsExhaust(t *testing.T) {
	var n atomic.Int64
	f := fakeFleet(t, &exhaustAfter{fakeRegion: newFakeRegion(), limit: 2, n: &n})
	f.cfg.Interval = time.Millisecond

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := f.Run(ctx); err != nil {
		t.Fatalf("Run = %v, want clean exhaustion", err)
	}
	if got := n.Load(); got != 2 {
		t.Errorf("steps before exhaustion = %d, want 2", got)
	}
}

type exhaustAfter struct {
	*fakeRegion
	limit int64
	n     *atomic.Int64
}

func (e *exhaustAfter) Step() bool { return e.n.Add(1) >= e.limit }

// TestBusSkew pins the skew math: three regions at 10/10/40 give
// total 60, mean 20, skew 2, cv = sqrt(200)/20.
func TestBusSkew(t *testing.T) {
	b := newBus(nil)
	if sk := b.skew(); sk.Regions != 0 || sk.Skew != 0 {
		t.Fatalf("empty bus skew = %+v", sk)
	}
	b.publish("r000", daemon.DemandSummary{Total: 10})
	b.publish("r001", daemon.DemandSummary{Total: 10})
	b.publish("r002", daemon.DemandSummary{Total: 40})
	// Re-publishing replaces, not appends.
	b.publish("r002", daemon.DemandSummary{Total: 40})

	sk := b.skew()
	if sk.Regions != 3 || sk.Total != 60 || sk.Mean != 20 {
		t.Fatalf("skew report = %+v", sk)
	}
	if sk.Max != 40 || sk.MaxRegion != "r002" || sk.Min != 10 {
		t.Errorf("extremes wrong: %+v", sk)
	}
	if sk.Skew != 2 {
		t.Errorf("skew = %v, want 2", sk.Skew)
	}
	if want := math.Sqrt(200) / 20; math.Abs(sk.CV-want) > 1e-12 {
		t.Errorf("cv = %v, want %v", sk.CV, want)
	}
	snap := b.snapshot()
	if len(snap) != 3 || snap[0].Region != "r000" || snap[2].Region != "r002" {
		t.Errorf("snapshot not ordered by region: %+v", snap)
	}
}

// TestUnencodableBodyAnswers500: a NaN demand sample (only a bug in a
// region can publish one) makes the skew report unencodable, and the
// fleet routes that serve it answer 500 with a JSON error body, not a 200
// with no body.
func TestUnencodableBodyAnswers500(t *testing.T) {
	f := fakeFleet(t, newFakeRegion())
	f.bus.publish("r000", daemon.DemandSummary{Total: math.NaN()})
	h := f.Handler()
	for _, route := range []string{"/status", "/demand"} {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, route, nil))
		var body struct{ Error string }
		if err := json.Unmarshal(w.Body.Bytes(), &body); w.Code != http.StatusInternalServerError || err != nil ||
			!strings.Contains(body.Error, "NaN") || w.Header().Get("Content-Type") != "application/json" {
			t.Errorf("%s: %d %q %s, want a 500 JSON error naming the NaN", route, w.Code, w.Header().Get("Content-Type"), w.Body)
		}
	}
}
