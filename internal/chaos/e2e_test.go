// The end-to-end tests live in an external test package so they can drive
// the real irisd control loop: the daemon package imports chaos (for the
// /debug/chaos surface), so chaos's own package cannot import it back.
package chaos_test

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"iris/internal/chaos"
	"iris/internal/daemon"
	"iris/internal/fabric"
	"iris/internal/fibermap"
	"iris/internal/hose"
	"iris/internal/telemetry"
	"iris/internal/trace"
	"iris/internal/traffic"
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

type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Logf("%s", bytes.TrimRight(p, "\n"))
	return len(p), nil
}

// chaosRig brings up the toy region with every device wrapped in a chaos
// fault shim and an irisd daemon supervising it on a fake clock.
type chaosRig struct {
	rig   *fabric.Rig
	devs  *chaos.DeviceSet
	inj   *chaos.Injector
	d     *daemon.Daemon
	clock *fakeClock
	reg   *telemetry.Registry
}

func newChaosRig(t *testing.T, feedShifts [][2]float64) *chaosRig {
	t.Helper()
	devs := chaos.NewDeviceSet()
	rig, err := fabric.BringUp(fabric.BringUpConfig{Toy: true, WrapDevice: devs.Wrap})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rig.Close)

	dcs := rig.Dep.Region.Map.DCs()
	mats := make([]*traffic.Matrix, len(feedShifts))
	for i, s := range feedShifts {
		tm := traffic.NewMatrix(dcs)
		tm.Set(hose.Pair{A: dcs[0], B: dcs[1]}, s[0])
		tm.Set(hose.Pair{A: dcs[0], B: dcs[2]}, s[1])
		mats[i] = tm
	}

	clock := newFakeClock()
	tracer := trace.New(8192)
	reg := telemetry.NewRegistry()
	inj, err := chaos.NewInjector(chaos.InjectorConfig{
		Devices:  devs,
		Fab:      rig.Fab,
		Tracer:   tracer,
		Registry: reg,
		Now:      clock.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	d, err := daemon.New(daemon.Config{
		Fab:              rig.Fab,
		Controller:       rig.Testbed.Controller,
		Feed:             traffic.NewReplay(mats...),
		FailureThreshold: 2,
		BackoffBase:      100 * time.Millisecond,
		BackoffMax:       400 * time.Millisecond,
		Seed:             1,
		Registry:         reg,
		Now:              clock.Now,
		Logger:           slog.New(slog.NewTextHandler(testWriter{t}, nil)),
		Tracer:           tracer,
		Chaos:            inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &chaosRig{rig: rig, devs: devs, inj: inj, d: d, clock: clock, reg: reg}
}

// hubDuct returns the toy region's central hub-hub duct (L5).
func hubDuct(t *testing.T, m *fibermap.Map) int {
	t.Helper()
	for _, d := range m.Ducts {
		if m.Nodes[d.A].Kind == fibermap.Hut && m.Nodes[d.B].Kind == fibermap.Hut {
			return d.ID
		}
	}
	t.Fatal("no hub-hub duct in toy map")
	return -1
}

func spanNames(nodes []*trace.Node, into map[string]int) {
	for _, n := range nodes {
		into[n.Name]++
		spanNames(n.Children, into)
	}
}

// TestChaosCycleEndToEnd is the issue's live-injection acceptance test: a
// chaos cycle cuts the toy region's central duct mid-shift, the daemon's
// supervision detects the faulted switches, and after restore the cycle
// drives a repair whose reconfiguration leaves a complete
// detect → replan → … → undrain span tree on the flight recorder.
func TestChaosCycleEndToEnd(t *testing.T) {
	cr := newChaosRig(t, [][2]float64{{60, 45}, {20, 95}})
	d, clock := cr.d, cr.clock

	// Shift 1 converges cleanly.
	d.ProbeOnce()
	d.Step()
	if !d.ConvergedNow() {
		t.Fatalf("not converged after clean shift: %+v", d.Status())
	}

	sc := chaos.Cut(hubDuct(t, cr.rig.Dep.Region.Map))
	if targets := cr.inj.TargetsFor(sc); len(targets) != 2 {
		t.Fatalf("hub cut targets %v, want the two hub OSS", targets)
	}

	// The pump stands in for irisd's real-time loop: advance the clock,
	// probe, and only take control-loop steps while healthy and repaired
	// (so the cycle's own replan pass is the one that reconciles).
	pump := func() {
		clock.advance(120 * time.Millisecond)
		d.ProbeOnce()
		st := d.Status()
		if st.Healthy && !st.NeedRepair {
			d.Step()
		}
	}
	res, err := d.ChaosCycle(context.Background(), sc, daemon.CycleOptions{Pump: pump, Timeout: 20 * time.Second})
	if err != nil {
		t.Fatalf("chaos cycle: %v", err)
	}
	if res.Detect <= 0 || res.Repair <= 0 {
		t.Fatalf("cycle latencies not measured: %+v", res)
	}
	if !d.ConvergedNow() {
		t.Fatalf("daemon not reconverged after cycle: %+v", d.Status())
	}
	if cr.inj.Snapshot().ActiveFaults != 0 {
		t.Fatal("fault left active after cycle")
	}

	// The cycle's span tree is complete: the chaos phases at the root, and
	// the replan subtree carrying the repair's fetch-state, the full
	// drained reconfiguration (through undrain), and the closing audit.
	dump := d.DebugEvents(res.TraceID)
	if len(dump.Tree) != 1 || dump.Tree[0].Name != "chaos-cycle" {
		t.Fatalf("trace %d roots = %+v, want one chaos-cycle", res.TraceID, dump.Tree)
	}
	names := make(map[string]int)
	spanNames(dump.Tree, names)
	for _, want := range []string{
		"inject", "detect", "restore", "heal", "replan", "settle",
		"fetch-state", "drain", "switch", "amps", "retune", "undrain", "audit",
	} {
		if names[want] == 0 {
			t.Errorf("span %q missing from cycle trace: %v", want, names)
		}
	}

	// Metrics reflect the cycle.
	var b strings.Builder
	if err := cr.reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`iris_chaos_injections_total{kind="cut"} 1`,
		"iris_chaos_restores_total 1",
		"iris_chaos_cycles_total 1",
		"iris_chaos_active_faults 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// The injector surfaces on /status and /debug/chaos.
	st := d.Status()
	if st.Chaos == nil || st.Chaos.Restores != 1 || st.Chaos.ActiveFaults != 0 {
		t.Fatalf("status chaos snapshot = %+v", st.Chaos)
	}
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/debug/chaos")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap chaos.Status
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Restores != 1 || len(snap.History) != 1 || snap.History[0].Scenario.Name != sc.Name {
		t.Fatalf("/debug/chaos snapshot = %+v", snap)
	}
}

// TestChaosHTTPInjection drives the /debug/chaos POST surface: inject a
// hub cut over HTTP, watch the region degrade, restore, and watch it heal.
func TestChaosHTTPInjection(t *testing.T) {
	cr := newChaosRig(t, [][2]float64{{60, 45}})
	d, clock := cr.d, cr.clock
	d.ProbeOnce()
	d.Step()

	srv := httptest.NewServer(d.Handler())
	defer srv.Close()
	duct := hubDuct(t, cr.rig.Dep.Region.Map)

	resp, err := srv.Client().Post(
		srv.URL+"/debug/chaos?action=inject&kind=cut&duct="+strconv.Itoa(duct), "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var f chaos.Fault
	if err := json.NewDecoder(resp.Body).Decode(&f); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(f.Devices) != 2 {
		t.Fatalf("injected fault devices = %v, want both hub OSS", f.Devices)
	}

	// Two probe rounds trip a breaker on the faulted switches.
	d.ProbeOnce()
	d.ProbeOnce()
	if d.Healthy() {
		t.Fatal("daemon healthy with both hub OSS faulted")
	}

	resp, err = srv.Client().Post(srv.URL+"/debug/chaos?action=restore_all", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if cr.inj.Snapshot().ActiveFaults != 0 {
		t.Fatal("faults still active after restore_all")
	}

	// After the breaker cooldown the region recovers.
	clock.advance(500 * time.Millisecond)
	d.ProbeOnce()
	if !d.Healthy() {
		t.Fatalf("daemon not healthy after restore: %+v", d.Status())
	}

	// Bad requests are rejected.
	for _, q := range []string{
		"action=inject&kind=cut",          // no ducts
		"action=inject&kind=meteor",       // unknown kind
		"action=restore&id=notanumber",    // bad id
		"action=launch",                   // unknown action
		"action=inject&kind=dc&node=9999", // out of range
	} {
		resp, err := srv.Client().Post(srv.URL+"/debug/chaos?"+q, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode < 400 {
			t.Errorf("POST %q = %d, want an error status", q, resp.StatusCode)
		}
	}
}

// TestChaosHTTPBadAutoRestoreInjectsNothing: an inject whose auto_restore
// does not parse is refused before any device is faulted, since no
// restore could be scheduled for it.
func TestChaosHTTPBadAutoRestoreInjectsNothing(t *testing.T) {
	cr := newChaosRig(t, [][2]float64{{60, 45}})
	srv := httptest.NewServer(cr.d.Handler())
	defer srv.Close()
	duct := strconv.Itoa(hubDuct(t, cr.rig.Dep.Region.Map))
	for _, v := range []string{"bogus", "-1s", "0s"} {
		resp, err := srv.Client().Post(srv.URL+"/debug/chaos?action=inject&kind=cut&duct="+duct+"&auto_restore="+v, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("auto_restore=%s answered %d, want 400", v, resp.StatusCode)
		}
		if n := cr.inj.Snapshot().ActiveFaults; n != 0 {
			t.Fatalf("auto_restore=%s left %d faults active", v, n)
		}
	}
}
