package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"iris/internal/control"
	"iris/internal/control/devicetest"
	"iris/internal/fabric"
	"iris/internal/hose"
	"iris/internal/telemetry"
	"iris/internal/trace"
	"iris/internal/traffic"
	"iris/internal/traffic/traffictest"
)

// testLogger routes the daemon's structured logs into t.Logf.
func testLogger(t *testing.T) *slog.Logger {
	return slog.New(slog.NewTextHandler(testWriter{t}, nil))
}

type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Logf("%s", bytes.TrimRight(p, "\n"))
	return len(p), nil
}

// toyRig brings up the toy region; opts may adjust the bring-up (fault
// wrappers, transport deadlines).
func toyRig(t *testing.T, mutate func(*fabric.BringUpConfig)) *fabric.Rig {
	t.Helper()
	cfg := fabric.BringUpConfig{Toy: true}
	if mutate != nil {
		mutate(&cfg)
	}
	rig, err := fabric.BringUp(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rig.Close)
	return rig
}

func toyMatrix(rig *fabric.Rig, d01, d02 float64) *traffic.Matrix {
	dcs := rig.Dep.Region.Map.DCs()
	tm := traffic.NewMatrix(dcs)
	tm.Set(hose.Pair{A: dcs[0], B: dcs[1]}, d01)
	tm.Set(hose.Pair{A: dcs[0], B: dcs[2]}, d02)
	return tm
}

// TestDaemonThreeShifts is the deterministic end-to-end loop test: three
// distinct traffic matrices replayed through the daemon, every reconfig
// audited, status surface checked after each step.
func TestDaemonThreeShifts(t *testing.T) {
	rig := toyRig(t, nil)
	feed := traffictest.NewReplay(
		toyMatrix(rig, 60, 45),
		toyMatrix(rig, 20, 95),
		toyMatrix(rig, 80, 10),
	)
	d, err := New(Config{
		Fab:        rig.Fab,
		Controller: rig.Testbed.Controller,
		Feed:       feed,
		Seed:       7,
	})
	if err != nil {
		t.Fatal(err)
	}

	d.ProbeOnce()
	if !d.Healthy() {
		t.Fatal("fresh testbed reported unhealthy")
	}
	for i := 0; i < 3; i++ {
		if done := d.Step(); done {
			t.Fatalf("feed exhausted after %d shifts, want 3", i)
		}
		// Every reconfiguration must leave devices matching intent.
		if err := d.Audit(); err != nil {
			t.Fatalf("audit after shift %d: %v", i+1, err)
		}
		st := d.Status()
		if !st.Converged {
			t.Fatalf("not converged after shift %d: %+v", i+1, st)
		}
		if st.Circuits == 0 {
			t.Fatalf("no active circuits after shift %d", i+1)
		}
	}
	if done := d.Step(); !done {
		t.Fatal("4th step did not report feed exhaustion")
	}

	st := d.Status()
	if st.Steps != 4 {
		t.Errorf("steps = %d, want 4", st.Steps)
	}
	if !st.LastAuditOK || st.NeedRepair || st.LastError != "" {
		t.Errorf("unexpected end state: %+v", st)
	}
	if got := counterValue(t, d.Registry(), "iris_reconfig_total"); got != 3 {
		t.Errorf("iris_reconfig_total = %v, want 3", got)
	}
	if got := counterValue(t, d.Registry(), "iris_audit_failures_total"); got != 0 {
		t.Errorf("iris_audit_failures_total = %v, want 0", got)
	}
}

// TestDaemonSkipsEqualAllocation verifies an unchanged demand does not
// trigger a device reconfiguration.
func TestDaemonSkipsEqualAllocation(t *testing.T) {
	rig := toyRig(t, nil)
	feed := traffictest.NewReplay(
		toyMatrix(rig, 60, 45),
		toyMatrix(rig, 60, 45), // identical → same allocation
	)
	d, err := New(Config{Fab: rig.Fab, Controller: rig.Testbed.Controller, Feed: feed})
	if err != nil {
		t.Fatal(err)
	}
	d.Step()
	d.Step()
	if got := counterValue(t, d.Registry(), "iris_reconfig_total"); got != 1 {
		t.Errorf("iris_reconfig_total = %v, want 1 (second identical shift must be a no-op)", got)
	}
}

// metricsText renders the registry as /metrics would.
func metricsText(t *testing.T, reg *telemetry.Registry) string {
	t.Helper()
	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// counterValue reads an unlabeled counter the daemon already registered
// off the text exposition; registration is single-shot, so tests must
// read, never re-claim.
func counterValue(t *testing.T, reg *telemetry.Registry, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(metricsText(t, reg), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("counter %s: %v", name, err)
			}
			return f
		}
	}
	t.Fatalf("counter %s not registered", name)
	return 0
}

// TestHTTPSurface exercises /status, /metrics and /healthz end to end.
func TestHTTPSurface(t *testing.T) {
	rig := toyRig(t, nil)
	feed := traffictest.NewReplay(toyMatrix(rig, 60, 45))
	d, err := New(Config{Fab: rig.Fab, Controller: rig.Testbed.Controller, Feed: feed})
	if err != nil {
		t.Fatal(err)
	}
	d.ProbeOnce()
	d.Step()

	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	res, err := srv.Client().Get(srv.URL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	var st Status
	if err := json.NewDecoder(res.Body).Decode(&st); err != nil {
		t.Fatalf("decode /status: %v", err)
	}
	res.Body.Close()
	if !st.Healthy || !st.Converged || st.Circuits == 0 {
		t.Errorf("/status = %+v, want healthy converged with circuits", st)
	}
	if len(st.Devices) != len(rig.Testbed.Controller.Devices()) {
		t.Errorf("/status lists %d devices, want %d", len(st.Devices), len(rig.Testbed.Controller.Devices()))
	}
	if len(st.Allocation) == 0 {
		t.Error("/status has no allocation entries")
	}

	res, err = srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(res.Body)
	res.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	if ct := res.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("/metrics Content-Type = %q", ct)
	}
	for _, want := range []string{
		"# TYPE iris_reconfig_total counter",
		"iris_reconfig_total 1",
		"# TYPE iris_breaker_state gauge",
		"iris_reconfig_seconds_count 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	res, err = srv.Client().Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != 200 {
		t.Errorf("/healthz = %d, want 200", res.StatusCode)
	}
}

// TestRunGracefulShutdown drives Run with real (tiny) tickers against an
// infinite evolving feed and cancels it; Run must drain and return nil.
func TestRunGracefulShutdown(t *testing.T) {
	rig := toyRig(t, nil)
	caps := rig.Dep.Region.HoseCaps()
	feed := traffic.NewEvolver(11, toyMatrix(rig, 60, 45),
		traffic.ChangeProcess{Bound: 0.4, Caps: caps, Util: 0.5})
	d, err := New(Config{
		Fab:           rig.Fab,
		Controller:    rig.Testbed.Controller,
		Feed:          feed,
		Interval:      5 * time.Millisecond,
		ProbeInterval: 3 * time.Millisecond,
		Logger:        testLogger(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- d.Run(ctx) }()
	time.Sleep(60 * time.Millisecond)
	cancel()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("Run returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after cancellation")
	}
	// The drained shutdown must leave devices matching intent.
	if err := d.Audit(); err != nil {
		t.Fatalf("audit after shutdown: %v", err)
	}
	if d.Status().Steps == 0 {
		t.Error("Run made no steps")
	}
}

// TestDialOptionsOnRig sanity-checks that bring-up's transport deadlines
// still let a healthy region converge.
func TestDialOptionsOnRig(t *testing.T) {
	rig := toyRig(t, func(cfg *fabric.BringUpConfig) {
		cfg.Dial = control.DialOptions{RPCTimeout: time.Second}
	})
	d, err := New(Config{
		Fab:        rig.Fab,
		Controller: rig.Testbed.Controller,
		Feed:       traffictest.NewReplay(toyMatrix(rig, 60, 45)),
	})
	if err != nil {
		t.Fatal(err)
	}
	d.Step()
	if err := d.Audit(); err != nil {
		t.Fatal(err)
	}
}

// TestReconfigTraceTree is the deterministic end-to-end trace test: a
// live flight recorder is threaded from bring-up through two traffic
// shifts, then the second reconfiguration's span tree is pulled from the
// recorder and over HTTP and checked for the change's layers in order,
// and under the controller's the full ordered §5.2 sequence with
// per-device children.
func TestReconfigTraceTree(t *testing.T) {
	tracer := trace.New(4096)
	rig := toyRig(t, func(cfg *fabric.BringUpConfig) { cfg.Tracer = tracer })
	feed := traffictest.NewReplay(
		toyMatrix(rig, 60, 45),
		toyMatrix(rig, 20, 95), // forces fiber moves: drains carry real ops
	)
	d, err := New(Config{
		Fab:        rig.Fab,
		Controller: rig.Testbed.Controller,
		Feed:       feed,
		Tracer:     tracer,
		Logger:     testLogger(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	d.ProbeOnce()
	for i := 0; i < 2; i++ {
		if done := d.Step(); done {
			t.Fatalf("feed exhausted after %d shifts", i)
		}
	}
	st := d.Status()
	if st.LastReconfigID == 0 {
		t.Fatal("status has no last reconfig ID")
	}

	checkTree := func(roots []*trace.Node) {
		t.Helper()
		if len(roots) != 1 {
			t.Fatalf("got %d roots, want 1", len(roots))
		}
		root := roots[0]
		if root.Name != "reconfig" || root.TraceID != st.LastReconfigID {
			t.Fatalf("root = %q trace %d, want reconfig trace %d", root.Name, root.TraceID, st.LastReconfigID)
		}
		var names, phases []string
		devChildren := 0
		for _, c := range root.Children {
			names = append(names, c.Name)
			if c.Name != "control.reconfigure" {
				continue
			}
			for _, ph := range c.Children {
				phases = append(phases, ph.Name)
				for _, dc := range ph.Children {
					if dc.Device == "" {
						t.Errorf("child %q of phase %q has no device attribution", dc.Name, ph.Name)
					}
					if dc.DurationMS < 0 {
						t.Errorf("device span %q has negative duration", dc.Name)
					}
					devChildren++
				}
			}
		}
		want := "traffic.diff,core.delta,core.snapshot,fabric.clone,compile,control.reconfigure,audit,history.record"
		if got := strings.Join(names, ","); got != want {
			t.Fatalf("layer order %q, want %q", got, want)
		}
		if got, want := strings.Join(phases, ","), "drain,switch,amps,retune,undrain"; got != want {
			t.Fatalf("phase order %q, want %q", got, want)
		}
		if devChildren == 0 {
			t.Fatal("no per-device spans recorded under any phase")
		}
	}

	// Straight from the recorder.
	checkTree(d.debugEvents(st.LastReconfigID).Tree)

	// Over HTTP, exactly as an operator would pull it.
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()
	res, err := srv.Client().Get(fmt.Sprintf("%s/debug/events?reconfig=%d", srv.URL, st.LastReconfigID))
	if err != nil {
		t.Fatal(err)
	}
	var dump eventsDump
	if err := json.NewDecoder(res.Body).Decode(&dump); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if dump.ReconfigID != st.LastReconfigID {
		t.Errorf("dump echoes reconfig %d, want %d", dump.ReconfigID, st.LastReconfigID)
	}
	if len(dump.Events) == 0 {
		t.Fatal("/debug/events returned no events")
	}
	checkTree(dump.Tree)

	// /debug/trace serves assembled trees for the most recent traces.
	res, err = srv.Client().Get(srv.URL + "/debug/trace?n=1")
	if err != nil {
		t.Fatal(err)
	}
	var trees []*trace.Node
	if err := json.NewDecoder(res.Body).Decode(&trees); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	checkTree(trees)

	// /status carries the reconfig ID and per-device breaker timestamps
	// are absent until a first transition.
	res, err = srv.Client().Get(srv.URL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	var got Status
	if err := json.NewDecoder(res.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if got.LastReconfigID != st.LastReconfigID {
		t.Errorf("/status last_reconfig_id = %d, want %d", got.LastReconfigID, st.LastReconfigID)
	}
	for _, ds := range got.Devices {
		if ds.BreakerSince != nil {
			t.Errorf("device %s has breaker_since with no transitions", ds.Name)
		}
	}

	// /metrics: the reconfiguration phases and the bring-up plan's
	// Algorithm-1 stages are both populated.
	res, err = srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(res.Body)
	res.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{
		`iris_reconfig_phase_seconds_count{phase="drain"} 2`,
		`iris_reconfig_phase_seconds_count{phase="switch"} 2`,
		`iris_reconfig_phase_seconds_count{phase="retune"} 2`,
		`iris_reconfig_phase_seconds_count{phase="undrain"} 2`,
		`iris_plan_stage_seconds_count{stage="route"} 1`,
		`iris_plan_stage_seconds_count{stage="provision"} 1`,
		`iris_plan_stage_seconds_count{stage="total"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// The bring-up plan trace is in the recorder too: a "plan" root with
	// Algorithm-1 stage children.
	var planRoot *trace.Node
	for _, n := range tracer.Traces(100) {
		if n.Name == "plan" {
			planRoot = n
		}
	}
	if planRoot == nil {
		t.Fatal("no plan trace recorded at bring-up")
	}
	stages := make(map[string]bool)
	for _, c := range planRoot.Children {
		stages[c.Name] = true
	}
	for _, want := range []string{"route", "amps", "cutthrough", "provision", "total"} {
		if !stages[want] {
			t.Errorf("plan trace missing stage %q (have %v)", want, stages)
		}
	}
}

// TestBreakerSinceAndTraceEvents checks that breaker transitions stamp
// /status timestamps and land in the flight recorder as instant events.
func TestBreakerSinceAndTraceEvents(t *testing.T) {
	tracer := trace.New(256)
	rig, shims := faultRig(t, nil)
	d, err := New(Config{
		Fab:              rig.Fab,
		Controller:       rig.Testbed.Controller,
		Feed:             traffictest.NewReplay(toyMatrix(rig, 60, 45)),
		FailureThreshold: 1,
		Tracer:           tracer,
		Logger:           testLogger(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	d.ProbeOnce()
	for _, ds := range d.Status().Devices {
		if ds.BreakerSince != nil {
			t.Errorf("healthy device %s already has breaker_since", ds.Name)
		}
	}

	victim := pickVictim(rig)
	shims[victim].Arm(devicetest.Fail)
	d.ProbeOnce()

	if got := breakerOf(t, d, victim); got != "open" {
		t.Fatalf("breaker = %q after failed probe at threshold 1, want open", got)
	}
	for _, ds := range d.Status().Devices {
		if ds.Name == victim && ds.BreakerSince == nil {
			t.Error("open breaker has no breaker_since timestamp")
		}
	}
	var flips int
	for _, ev := range tracer.Events(trace.Filter{}) {
		if ev.Name == "breaker" && ev.Device == victim && ev.Attr == "open" {
			flips++
		}
	}
	if flips != 1 {
		t.Errorf("recorder has %d breaker-open events for %s, want 1", flips, victim)
	}
}
