// End-to-end fleet tests live in an external package and drive real
// regions — full fabrics, evolving feeds, chaos injectors — through the
// fleet scheduler on a fake clock, so every run is deterministic for a
// given -regions/-seed.
package fleet_test

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"iris/internal/daemon"
	"iris/internal/fleet"
)

var (
	nRegions = flag.Int("regions", 8, "fleet size for the e2e test")
	e2eSeed  = flag.Int64("seed", 1, "fleet seed for the e2e test")
)

type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// testFleet builds an n-region chaos-armed fleet on a fake clock, sized
// for fast deterministic convergence: zero OSS settling delay, two
// traffic steps per region, tight breaker backoff.
func testFleet(t *testing.T, n int, seed int64, clock *fakeClock) *fleet.Fleet {
	t.Helper()
	cfg := fleet.DefaultConfig()
	cfg.Regions = n
	cfg.Seed = seed
	cfg.Workers = 8
	cfg.Now = clock.Now
	rc := daemon.DefaultRegionConfig()
	rc.OSSDelay = 0
	rc.Steps = 2
	rc.Chaos = true
	rc.TraceEvents = 256
	rc.FailureThreshold = 2
	rc.BackoffBase = 100 * time.Millisecond
	rc.BackoffMax = 400 * time.Millisecond
	cfg.Region = rc
	f, err := fleet.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	return f
}

// round runs one synchronous scheduler round: dispatch, drain, advance
// the shared clock past the probe interval.
func round(f *fleet.Fleet, clock *fakeClock) int {
	dispatched, _ := f.Round()
	f.Quiesce()
	clock.advance(time.Second)
	return dispatched
}

// runFleetE2E is the shared e2e scenario: converge every region once,
// pin one region with a chaos cycle parked mid-flight, prove the other
// n-1 regions run to feed exhaustion while it is pinned, then let the
// cycle finish and verify the whole fleet heals and exhausts. Returns
// the fleet for extra assertions.
func runFleetE2E(t *testing.T, n int, seed int64) (*fleet.Fleet, *fakeClock) {
	t.Helper()
	clock := newFakeClock()
	f := testFleet(t, n, seed, clock)
	if f.Regions() != n {
		t.Fatalf("fleet has %d regions, want %d", f.Regions(), n)
	}

	// Round 1: every region converges its first shift.
	if d := round(f, clock); d != n {
		t.Fatalf("round 1 dispatched %d, want %d", d, n)
	}
	st := f.Status()
	if st.Converged != n || st.Healthy != n {
		t.Fatalf("after round 1: converged=%d healthy=%d, want %d", st.Converged, st.Healthy, n)
	}
	if sk := f.Status().Skew; sk.Regions != n || sk.Total <= 0 || sk.Skew < 1 {
		t.Fatalf("demand skew not aggregated: %+v", sk)
	}

	// Pin the victim with a chaos cycle whose pump is parked on a gate:
	// the fault is injected but the cycle makes no progress, holding the
	// region busy — exactly the pinned-cycle case the scheduler must
	// isolate.
	victim := fleet.RegionID(0)
	vr, ok := f.Region(victim)
	if !ok {
		t.Fatalf("region %s missing", victim)
	}
	gate := make(chan struct{})
	pump := func() {
		<-gate // parked until released; a closed gate never blocks again
		clock.advance(150 * time.Millisecond)
		vr.ProbeOnce()
		if vs := vr.Status(); vs.Healthy && !vs.NeedRepair {
			vr.Step()
		}
	}
	outcomes := make(chan []fleet.StormOutcome, 1)
	go func() {
		outcomes <- f.Storm(context.Background(), fleet.StormConfig{
			Regions: []string{victim},
			Seed:    seed,
			Cycle:   daemon.CycleOptions{Pump: pump, Timeout: time.Minute},
		})
	}()
	waitBusy := func(want bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			busy := false
			for _, row := range f.Status().PerRegion {
				if row.ID == victim {
					busy = row.Busy
				}
			}
			if busy == want {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("region %s busy != %v", victim, want)
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitBusy(true)

	// Rounds 2..: the pinned region is skipped every time; its n-1
	// siblings keep stepping and run their feeds to exhaustion.
	for i := 0; i < 3; i++ {
		if d := round(f, clock); d != n-1 {
			t.Fatalf("pinned round dispatched %d, want %d", d, n-1)
		}
	}
	st = f.Status()
	if st.Done != n-1 {
		t.Fatalf("done=%d while one region pinned, want %d", st.Done, n-1)
	}
	if st.Converged < n-1 {
		t.Fatalf("converged=%d while one region pinned, want ≥ %d", st.Converged, n-1)
	}
	for _, row := range st.PerRegion {
		if row.ID == victim {
			if row.Done {
				t.Fatal("pinned region advanced while parked")
			}
			if !row.Busy {
				t.Fatal("victim not busy mid-cycle")
			}
		} else if !row.Converged {
			t.Errorf("region %s not converged while sibling pinned", row.ID)
		}
	}

	// Release the cycle: detect → restore → heal → replan → settle runs
	// off the pump, then the region rejoins the rotation and exhausts.
	close(gate)
	out := <-outcomes
	if len(out) != 1 || out[0].Error != "" || out[0].Result == nil {
		t.Fatalf("storm outcome = %+v", out)
	}
	if out[0].Result.Detect <= 0 || out[0].Result.Repair <= 0 {
		t.Fatalf("cycle latencies not measured: %+v", out[0].Result)
	}
	waitBusy(false)
	for i := 0; i < 4 && !allDone(f); i++ {
		round(f, clock)
	}
	st = f.Status()
	if st.Done != n || st.Converged != n || st.Healthy != n {
		t.Fatalf("fleet did not heal: %+v", st)
	}
	return f, clock
}

func allDone(f *fleet.Fleet) bool { return f.Status().Done == f.Regions() }

// TestFleetE2E is the deterministic fleet acceptance run, parameterised
// by -regions and -seed: all N regions converge, one injected region
// fault (a pinned chaos cycle) leaves the other N-1 converged, and the
// fleet heals. The aggregated HTTP plane is asserted on the same fleet.
func TestFleetE2E(t *testing.T) {
	if *nRegions < 2 {
		t.Fatal("-regions must be ≥ 2")
	}
	f, _ := runFleetE2E(t, *nRegions, *e2eSeed)

	srv := httptest.NewServer(f.Handler())
	defer srv.Close()
	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}

	code, body := get("/status")
	if code != http.StatusOK {
		t.Fatalf("/status = %d", code)
	}
	var st fleet.Status
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("/status not JSON: %v", err)
	}
	if st.Regions != *nRegions || st.Converged != *nRegions {
		t.Fatalf("/status = %+v", st)
	}
	if st.Skew.Regions != *nRegions {
		t.Fatalf("/status skew = %+v", st.Skew)
	}

	code, body = get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	for _, want := range []string{
		"iris_fleet_rounds_total",
		"iris_fleet_demand_skew",
		"iris_fleet_chaos_cycles_total 1",
		fmt.Sprintf(`iris_daemon_steps_total{region="%s"}`, fleet.RegionID(0)),
		fmt.Sprintf(`iris_daemon_steps_total{region="%s"}`, fleet.RegionID(*nRegions-1)),
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	if code, body = get("/healthz"); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Errorf("/healthz = %d %q", code, body)
	}

	code, body = get("/regions/" + fleet.RegionID(1) + "/status")
	if code != http.StatusOK {
		t.Fatalf("region proxy = %d", code)
	}
	var ds daemon.Status
	if err := json.Unmarshal([]byte(body), &ds); err != nil {
		t.Fatalf("proxied region status not JSON: %v", err)
	}
	if !ds.Healthy || ds.Steps == 0 {
		t.Errorf("proxied region status = %+v", ds)
	}

	if code, _ = get("/regions/nope/status"); code != http.StatusNotFound {
		t.Errorf("unknown region = %d, want 404", code)
	}

	code, body = get("/demand")
	if code != http.StatusOK || !strings.Contains(body, `"skew"`) {
		t.Errorf("/demand = %d %q", code, body)
	}
}

// TestFleet100Regions is the scale acceptance run: 100 regions converge
// concurrently (race-clean), with one region pinned by a chaos cycle the
// whole time the other 99 run to exhaustion.
func TestFleet100Regions(t *testing.T) {
	if testing.Short() {
		t.Skip("100-region fleet run skipped in -short mode")
	}
	runFleetE2E(t, 100, 1)
}

// TestStormCyclesARegionOnce: a storm that names one region three times
// runs one cycle on it; the later mentions report an error without
// starting one.
func TestStormCyclesARegionOnce(t *testing.T) {
	clock := newFakeClock()
	f := testFleet(t, 2, 1, clock)
	round(f, clock)
	id := fleet.RegionID(0)
	r, _ := f.Region(id)
	out := f.Storm(context.Background(), fleet.StormConfig{
		Regions: []string{id, id, id},
		Seed:    1,
		Cycle: daemon.CycleOptions{Timeout: time.Minute, Pump: func() {
			clock.advance(150 * time.Millisecond)
			r.ProbeOnce()
			if st := r.Status(); st.Healthy && !st.NeedRepair {
				r.Step()
			}
		}},
	})
	twice := fmt.Sprintf("region %q named twice", id)
	if len(out) != 3 || out[0].Result == nil || out[0].Error != "" || out[1].Error != twice || out[2].Error != twice {
		t.Fatalf("storm outcomes %+v, want one result and two %q", out, twice)
	}
	rec := httptest.NewRecorder()
	f.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if body := rec.Body.String(); !strings.Contains(body, "iris_fleet_chaos_cycles_total 1\n") {
		t.Errorf("/metrics does not count one fleet chaos cycle:\n%s", body)
	}
}
