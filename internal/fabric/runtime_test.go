package fabric

import (
	"context"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"iris/internal/control/devicetest"
	"iris/internal/hose"
	"iris/internal/traffic"
)

// toyRig brings up the toy region with an instant-switching testbed.
func toyRig(t *testing.T) *Rig {
	t.Helper()
	rig, err := BringUp(BringUpConfig{Toy: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rig.Close)
	return rig
}

func toyMatrix(rig *Rig, d01, d02 float64) *traffic.Matrix {
	dcs := rig.Dep.Region.Map.DCs()
	tm := traffic.NewMatrix(dcs)
	tm.Set(hose.Pair{A: dcs[0], B: dcs[1]}, d01)
	if len(dcs) > 2 {
		tm.Set(hose.Pair{A: dcs[0], B: dcs[2]}, d02)
	}
	return tm
}

func TestCloneIsIndependent(t *testing.T) {
	rig := toyRig(t)
	alloc, err := rig.Dep.Allocate(toyMatrix(rig, 60, 45))
	if err != nil {
		t.Fatal(err)
	}

	clone := rig.Fab.Clone()
	if _, err := clone.CompileTarget(alloc); err != nil {
		t.Fatal(err)
	}
	if got := rig.Fab.CircuitCount(); got != 0 {
		t.Fatalf("compiling on the clone leaked %d circuits into the original", got)
	}
	if got := clone.CircuitCount(); got == 0 {
		t.Fatal("clone compiled no circuits")
	}
	// The untouched original still compiles the identical change, i.e. its
	// pools were not consumed by the clone.
	ch, err := rig.Fab.CompileTarget(alloc)
	if err != nil {
		t.Fatal(err)
	}
	if len(ch.Switches) == 0 {
		t.Fatal("original fabric compiled an empty change")
	}
}

func deviceStates(t *testing.T, rig *Rig) map[string]map[string]any {
	t.Helper()
	states := make(map[string]map[string]any)
	for _, name := range rig.Testbed.Controller.Devices() {
		st, err := rig.Testbed.Controller.Call(name, "state", nil)
		if err != nil {
			t.Fatalf("state of %s: %v", name, err)
		}
		states[name] = st
	}
	return states
}

func TestReconcileRepairsDriftedDevices(t *testing.T) {
	rig := toyRig(t)
	ctl := rig.Testbed.Controller
	alloc, err := rig.Dep.Allocate(toyMatrix(rig, 60, 45))
	if err != nil {
		t.Fatal(err)
	}
	ch, err := rig.Fab.CompileTarget(alloc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctl.Reconfigure(context.Background(), ch); err != nil {
		t.Fatal(err)
	}
	if err := ctl.Audit(rig.Fab.Expected()); err != nil {
		t.Fatalf("audit after clean reconfigure: %v", err)
	}

	// A converged fabric reconciles to an empty change.
	rc, err := rig.Fab.Expected().Repair(deviceStates(t, rig))
	if err != nil {
		t.Fatal(err)
	}
	if !EmptyChange(rc) {
		t.Fatalf("reconcile of converged devices is not empty: %+v", rc)
	}

	// Drift the devices behind the controller's back: rip out one OSS
	// cross-connect and drain one live transceiver.
	exp := rig.Fab.Expected()
	var ossName string
	var ossIn int
	for name, cross := range exp.Cross {
		for in := range cross {
			ossName, ossIn = name, in
		}
		if ossName != "" {
			break
		}
	}
	if _, err := ctl.Call(ossName, "switch-batch", map[string]any{"disconnect": []int{ossIn}, "ins": []int{}, "outs": []int{}}); err != nil {
		t.Fatal(err)
	}
	var xcvrName string
	var xcvrIdx int
	for name, en := range exp.Enabled {
		for idx, on := range en {
			if on {
				xcvrName, xcvrIdx = name, idx
			}
		}
		if xcvrName != "" {
			break
		}
	}
	if _, err := ctl.Call(xcvrName, "disable-batch", map[string]any{"idxs": []int{xcvrIdx}}); err != nil {
		t.Fatal(err)
	}
	if err := ctl.Audit(exp); err == nil {
		t.Fatal("audit passed on drifted devices")
	}

	// Reconcile must produce exactly the repair and bring the audit back.
	rc, err = rig.Fab.Expected().Repair(deviceStates(t, rig))
	if err != nil {
		t.Fatal(err)
	}
	if EmptyChange(rc) {
		t.Fatal("reconcile of drifted devices is empty")
	}
	if _, err := ctl.Reconfigure(context.Background(), rc); err != nil {
		t.Fatalf("repair reconfigure: %v", err)
	}
	if err := ctl.Audit(rig.Fab.Expected()); err != nil {
		t.Fatalf("audit after repair: %v", err)
	}
}

func TestBringUpGeneratedRegion(t *testing.T) {
	rig, err := BringUp(BringUpConfig{Seed: 3, DCs: 4, DCCapacity: 6, Lambda: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer rig.Close()
	if len(rig.Dep.Region.Map.DCs()) != 4 {
		t.Fatalf("DCs = %d, want 4", len(rig.Dep.Region.Map.DCs()))
	}
	if len(rig.Testbed.Controller.Devices()) == 0 {
		t.Fatal("no devices served")
	}
	// Every served device answers a ping.
	for _, name := range rig.Testbed.Controller.Devices() {
		if _, err := rig.Testbed.Controller.Call(name, "ping", nil); err != nil {
			t.Fatalf("ping %s: %v", name, err)
		}
	}
}

// TestReconfigureRPCBudget: on the 20-DC region a reconfiguration costs
// one RPC per device per phase, however many operations it carries, and
// a full audit one state fetch per device.
func TestReconfigureRPCBudget(t *testing.T) {
	shims := devicetest.Set{}
	rig := benchRig(t, shims)
	kinds := make(map[string]int)
	for _, dev := range rig.Testbed.Devices {
		kinds[dev.Kind()]++
	}

	dcs := rig.Dep.Region.Map.DCs()
	tm := traffic.HeavyTailed(rand.New(rand.NewSource(1)), dcs, rig.Dep.Region.HoseCaps(), 0.7)
	alloc, err := rig.Dep.Allocate(tm)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := rig.Fab.CompileTarget(alloc)
	if err != nil {
		t.Fatal(err)
	}
	ops := opCount(ch)
	if ops < 1000 {
		t.Fatalf("the change has %d operations: not a dense commit", ops)
	}
	shims.Take()
	rep, err := rig.Testbed.Controller.Reconfigure(context.Background(), ch)
	if err != nil {
		t.Fatal(err)
	}

	rpcs := 0
	for dev, calls := range shims.Take() {
		rpcs += len(calls)
		for i, c := range calls {
			if strings.HasSuffix(dev, "-xcvr") && !strings.HasSuffix(c.Op, "-batch") {
				t.Errorf("%s received the single-transceiver op %q", dev, c.Op)
			}
			if slices.ContainsFunc(calls[:i], func(prev devicetest.Call) bool { return prev.Op == c.Op }) {
				t.Errorf("%s received %q more than once in one reconfiguration: %v", dev, c.Op, calls)
			}
		}
	}
	budget := 3*kinds["transceivers"] + kinds["oss"] + kinds["amp"]
	if rpcs == 0 || rpcs > budget {
		t.Errorf("%d device RPCs for %d operations, budget %d (%v)", rpcs, ops, budget, kinds)
	}
	reported := 0
	for _, ph := range rep.Phases {
		reported += ph.Ops
	}
	if reported != ops {
		t.Errorf("Report.Phases count %d operations, the change has %d", reported, ops)
	}

	exp := rig.Fab.Expected()
	if err := rig.Testbed.Controller.Audit(exp); err != nil {
		t.Fatal(err)
	}
	fetched := shims.Take()
	for dev := range shims { // intent names every built device (TestIntentNamesEveryBuiltDevice)
		if got := fetched[dev]; !slices.Equal(got, []devicetest.Call{{Op: "state"}}) {
			t.Errorf("audit sent %s %v, want one state fetch", dev, got)
		}
	}
}

// TestReconcileRejectsMalformedState: repair reads device state through
// the same strict readers as the audit, so a bank reporting garbage is an
// error, not a bank read as fully drained.
func TestReconcileRejectsMalformedState(t *testing.T) {
	rig := toyRig(t)
	states := deviceStates(t, rig)
	if _, err := rig.Fab.Expected().Repair(states); err != nil {
		t.Fatal(err)
	}
	xcvr := rig.Fab.XcvrName(rig.Dep.Region.Map.DCs()[0])
	good := states[xcvr]["enabled"]
	states[xcvr]["enabled"] = strings.Repeat("G", len(good.(string)))
	if _, err := rig.Fab.Expected().Repair(states); err == nil {
		t.Error("reconcile accepted a bank whose enabled vector is not hex digits")
	}
	states[xcvr]["enabled"] = good
	for name, st := range states {
		if _, ok := st["in"]; ok {
			st["in"], st["out"] = []int{1, 1}, []int{2, 3}
			if _, err := rig.Fab.Expected().Repair(states); err == nil {
				t.Errorf("reconcile accepted %s with input port 1 connected twice", name)
			}
			break
		}
	}
}
