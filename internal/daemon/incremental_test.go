package daemon

import (
	"context"
	"strings"
	"testing"
	"time"

	"iris/internal/chaos"
	"iris/internal/control/devicetest"
	"iris/internal/core"
	"iris/internal/fabric"
	"iris/internal/fibermap"
	"iris/internal/hose"
	"iris/internal/telemetry"
	"iris/internal/trace"
	"iris/internal/traffic"
	"iris/internal/traffic/traffictest"
)

// fullSolve is the from-scratch reference the daemon's incremental books
// must stay equal to.
func fullSolve(t *testing.T, rig *fabric.Rig, tm *traffic.Matrix) core.Allocation {
	t.Helper()
	want, err := rig.Dep.Allocate(tm)
	if err != nil {
		t.Fatalf("reference allocate: %v", err)
	}
	return want
}

// bookKeeper wraps a daemon's policy to hold on to the allocator books
// it adopts, which the policy keeps to itself.
type bookKeeper struct {
	core.Policy
	next, adopted *core.AllocState
}

func (k *bookKeeper) Shift(dep *core.Deployment, tm *traffic.Matrix, step int) (core.Outcome, error) {
	out, err := k.Policy.Shift(dep, tm, step)
	k.next = out.State
	return out, err
}

func (k *bookKeeper) Adopt() {
	k.Policy.Adopt()
	k.adopted = k.next
}

// keepBooks wraps d's policy in a bookKeeper; call it before the first
// Step.
func keepBooks(d *Daemon) { d.policy = &bookKeeper{Policy: d.policy} }

// books snapshots the books d's policy adopted (kept since keepBooks) and
// its last-known-good allocation.
func books(d *Daemon) (state, lkg core.Allocation, have bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	st := d.policy.(*bookKeeper).adopted
	if st == nil {
		return core.Allocation{}, d.lkg, false
	}
	return st.Snapshot(), d.lkg, true
}

// TestDaemonIncrementalConvergence drives three shifts and checks that the
// daemon solved the first from scratch and the rest incrementally, with
// the retained books always equal to a from-scratch solve of the same
// matrix.
func TestDaemonIncrementalConvergence(t *testing.T) {
	rig := toyRig(t, nil)
	mats := []*traffic.Matrix{
		toyMatrix(rig, 60, 45),
		toyMatrix(rig, 20, 95),
		toyMatrix(rig, 80, 10),
	}
	reg := telemetry.NewRegistry()
	d, err := New(Config{
		Fab:        rig.Fab,
		Controller: rig.Testbed.Controller,
		Feed:       traffictest.NewReplay(mats...),
		Registry:   reg,
		Logger:     testLogger(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	keepBooks(d)
	for i, tm := range mats {
		if done := d.Step(); done {
			t.Fatalf("feed exhausted after %d shifts", i)
		}
		want := fullSolve(t, rig, tm)
		state, lkg, have := books(d)
		if !have {
			t.Fatalf("no incremental state after shift %d", i+1)
		}
		if !state.Equal(want) {
			t.Fatalf("shift %d: incremental books diverged from full solve", i+1)
		}
		if !lkg.Equal(want) {
			t.Fatalf("shift %d: last-known-good diverged from full solve", i+1)
		}
	}
	if got := counterValue(t, reg, "iris_alloc_fallback_total"); got != 1 {
		t.Errorf("iris_alloc_fallback_total = %v, want 1 (only the first solve)", got)
	}
	if got := counterValue(t, reg, "iris_alloc_incremental_total"); got != 2 {
		t.Errorf("iris_alloc_incremental_total = %v, want 2", got)
	}
	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "iris_alloc_pairs_resolved") {
		t.Error("metrics missing iris_alloc_pairs_resolved histogram")
	}
}

// TestDaemonCoalescesBurst verifies MaxBatch folds a burst of queued
// shifts into one convergence on the newest matrix.
func TestDaemonCoalescesBurst(t *testing.T) {
	rig := toyRig(t, nil)
	mats := []*traffic.Matrix{
		toyMatrix(rig, 60, 45),
		toyMatrix(rig, 20, 95),
		toyMatrix(rig, 80, 10),
		toyMatrix(rig, 30, 70),
		toyMatrix(rig, 55, 25),
	}
	reg := telemetry.NewRegistry()
	d, err := New(Config{
		Fab:        rig.Fab,
		Controller: rig.Testbed.Controller,
		Feed:       traffictest.NewReplay(mats...),
		MaxBatch:   3,
		Registry:   reg,
		Logger:     testLogger(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	keepBooks(d)

	// Step 1 drains shifts 1-3 and converges on shift 3 only.
	if done := d.Step(); done {
		t.Fatal("feed exhausted prematurely")
	}
	if _, lkg, _ := books(d); !lkg.Equal(fullSolve(t, rig, mats[2])) {
		t.Fatal("batched step did not converge on the newest matrix of the burst")
	}
	// Step 2 drains shifts 4-5 and converges on shift 5.
	if done := d.Step(); done {
		t.Fatal("feed exhausted prematurely")
	}
	state, lkg, _ := books(d)
	if !lkg.Equal(fullSolve(t, rig, mats[4])) {
		t.Fatal("second batched step did not converge on the final matrix")
	}
	if !state.Equal(lkg) {
		t.Fatal("incremental books diverged from last-known-good")
	}
	if done := d.Step(); !done {
		t.Fatal("feed not exhausted after both batches")
	}

	if got := counterValue(t, reg, "iris_daemon_coalesced_shifts_total"); got != 3 {
		t.Errorf("iris_daemon_coalesced_shifts_total = %v, want 3 (2 in the first burst, 1 in the second)", got)
	}
	if got := counterValue(t, reg, "iris_reconfig_total"); got != 2 {
		t.Errorf("iris_reconfig_total = %v, want 2 (one per batch)", got)
	}
}

// TestDaemonIncrementalRollbackOnFailure verifies a reconfiguration
// aborted by a device failure rolls the incremental books back to the
// last-known-good allocation, and that the retried shift still converges
// through the delta path after the device heals.
func TestDaemonIncrementalRollbackOnFailure(t *testing.T) {
	rig, shims := faultRig(t, nil)
	mats := []*traffic.Matrix{
		toyMatrix(rig, 60, 45),
		toyMatrix(rig, 20, 95),
	}
	reg := telemetry.NewRegistry()
	d, err := New(Config{
		Fab:        rig.Fab,
		Controller: rig.Testbed.Controller,
		Feed:       traffictest.NewReplay(mats...),
		// High threshold: the breaker must not open, so the rollback and
		// retry are isolated from the degraded-mode machinery.
		FailureThreshold: 100,
		Seed:             1,
		Registry:         reg,
		Logger:           testLogger(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	keepBooks(d)

	d.ProbeOnce()
	d.Step() // shift 1, clean
	want1 := fullSolve(t, rig, mats[0])

	victim := pickVictim(rig)
	shims[victim].Arm(devicetest.Fail)
	if done := d.Step(); done { // shift 2 aborts mid-reconfiguration
		t.Fatal("feed exhausted prematurely")
	}
	if got := counterValue(t, reg, "iris_reconfig_failures_total"); got != 1 {
		t.Fatalf("iris_reconfig_failures_total = %v, want 1", got)
	}
	state, lkg, have := books(d)
	if !have {
		t.Fatal("incremental state discarded by failed reconfiguration")
	}
	if !state.Equal(want1) || !lkg.Equal(want1) {
		t.Fatal("failed reconfiguration did not roll the books back to shift 1")
	}

	// Heal; the next step repairs and converges the retried shift via the
	// delta path.
	shims[victim].Arm(nil)
	if done := d.Step(); done {
		t.Fatal("feed exhausted prematurely")
	}
	state, lkg, _ = books(d)
	want2 := fullSolve(t, rig, mats[1])
	if !state.Equal(want2) || !lkg.Equal(want2) {
		t.Fatal("retried shift did not converge to the full solve")
	}
	if got := counterValue(t, reg, "iris_alloc_incremental_total"); got < 1 {
		t.Errorf("iris_alloc_incremental_total = %v, want ≥1 (retry should use the delta path)", got)
	}
}

// hubDuctID returns the toy region's central hub-hub duct.
func hubDuctID(t *testing.T, m *fibermap.Map) int {
	t.Helper()
	for _, du := range m.Ducts {
		if m.Nodes[du.A].Kind == fibermap.Hut && m.Nodes[du.B].Kind == fibermap.Hut {
			return du.ID
		}
	}
	t.Fatal("no hub-hub duct in toy map")
	return -1
}

// TestDaemonIncrementalChaosHeal runs a full chaos cycle (cut the hub
// duct, detect, restore, repair) against a daemon using incremental
// allocation, and checks the retained books still equal a from-scratch
// solve of the demand the daemon last converged on.
func TestDaemonIncrementalChaosHeal(t *testing.T) {
	devs := chaos.NewDeviceSet()
	rig, err := fabric.BringUp(fabric.BringUpConfig{Toy: true, WrapDevice: devs.Wrap})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rig.Close)

	dcs := rig.Dep.Region.Map.DCs()
	mats := make([]*traffic.Matrix, 2)
	for i, s := range [][2]float64{{60, 45}, {20, 95}} {
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
	d, err := New(Config{
		Fab:              rig.Fab,
		Controller:       rig.Testbed.Controller,
		Feed:             traffictest.NewReplay(mats...),
		FailureThreshold: 2,
		BackoffBase:      100 * time.Millisecond,
		BackoffMax:       400 * time.Millisecond,
		Seed:             1,
		Registry:         reg,
		Now:              clock.Now,
		Logger:           testLogger(t),
		Tracer:           tracer,
		Chaos:            inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	keepBooks(d)

	d.ProbeOnce()
	d.Step()
	if !d.ConvergedNow() {
		t.Fatalf("not converged before cycle: %+v", d.Status())
	}

	pump := func() {
		clock.advance(120 * time.Millisecond)
		d.ProbeOnce()
		st := d.Status()
		if st.Healthy && !st.NeedRepair {
			d.Step()
		}
	}
	sc := chaos.Cut(hubDuctID(t, rig.Dep.Region.Map))
	if _, err := d.ChaosCycle(context.Background(), sc, CycleOptions{Pump: pump, Timeout: 20 * time.Second}); err != nil {
		t.Fatalf("chaos cycle: %v", err)
	}
	// Drain whatever the cycle's pumping left of the feed.
	for !d.Step() {
	}

	d.mu.Lock()
	last := d.lastMatrix
	d.mu.Unlock()
	if last == nil {
		t.Fatal("daemon retained no demand matrix")
	}
	want := fullSolve(t, rig, last)
	state, lkg, have := books(d)
	if !have {
		t.Fatal("no incremental state after chaos cycle")
	}
	if !state.Equal(want) {
		t.Fatal("incremental books diverged from full solve after chaos heal")
	}
	if !lkg.Equal(want) {
		t.Fatal("last-known-good diverged from full solve after chaos heal")
	}
}
