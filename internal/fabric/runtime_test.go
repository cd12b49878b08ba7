package fabric

import (
	"context"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"iris/internal/control"
	"iris/internal/control/devicetest"
	"iris/internal/hose"
	"iris/internal/traffic"
)

// toyRig brings up the toy region with an instant-switching testbed,
// every device wrapped into shims unless shims is nil.
func toyRig(t *testing.T, shims devicetest.Set) *Rig {
	t.Helper()
	cfg := BringUpConfig{Toy: true}
	if shims != nil {
		cfg.WrapDevice = func(name string, dev control.Device) control.Device { return shims.Wrap(name, dev) }
	}
	rig, err := BringUp(cfg)
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
	rig := toyRig(t, nil)
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

// deviceState fetches one device's state through the controller.
func deviceState(t *testing.T, ctl *control.Controller, name string) map[string]any {
	t.Helper()
	return deviceStates(t, ctl, name)[name]
}

// deviceStates fetches the named devices' states in one round.
func deviceStates(t *testing.T, ctl *control.Controller, names ...string) map[string]map[string]any {
	t.Helper()
	states := make(map[string]map[string]any)
	if err := ctl.States(context.Background(), names, func(name string, st map[string]any, err error) error {
		states[name] = st
		return err
	}); err != nil {
		t.Fatal(err)
	}
	return states
}

func TestReconcileRepairsDriftedDevices(t *testing.T) {
	rig := toyRig(t, nil)
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
	rc, err := ctl.Repair(context.Background(), rig.Fab.Expected())
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
	if _, err := rig.Testbed.Devices[ossName].Handle("switch-batch", map[string]any{"disconnect": []int{ossIn}, "ins": []int{}, "outs": []int{}}); err != nil {
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
	if _, err := rig.Testbed.Devices[xcvrName].Handle("disable-batch", map[string]any{"idxs": []int{xcvrIdx}}); err != nil {
		t.Fatal(err)
	}
	if err := ctl.Audit(exp); err == nil {
		t.Fatal("audit passed on drifted devices")
	}

	// Reconcile must produce exactly the repair and bring the audit back.
	rc, err = ctl.Repair(context.Background(), rig.Fab.Expected())
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
	// Every served device answers with its state.
	deviceStates(t, rig.Testbed.Controller, rig.Testbed.Controller.Devices()...)
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
	shims := devicetest.Set{}
	rig := toyRig(t, shims)
	ctl, exp := rig.Testbed.Controller, rig.Fab.Expected()
	repair := func() error {
		_, err := ctl.Repair(context.Background(), exp)
		return err
	}
	if err := repair(); err != nil {
		t.Fatal(err)
	}
	// garble makes dev's state replies pass through edit.
	garble := func(dev string, edit func(st map[string]any)) {
		shims[dev].Arm(func(op string, args map[string]any, next devicetest.Next) (map[string]any, error) {
			st, err := next(op, args)
			if op == "state" && err == nil {
				edit(st)
			}
			return st, err
		})
	}
	xcvr := rig.Fab.XcvrName(rig.Dep.Region.Map.DCs()[0])
	garble(xcvr, func(st map[string]any) { st["enabled"] = strings.Repeat("G", len(st["enabled"].(string))) })
	if err := repair(); err == nil {
		t.Error("reconcile accepted a bank whose enabled vector is not hex digits")
	}
	shims[xcvr].Arm(nil)
	switches := 0
	for name, dev := range shims {
		if dev.Kind() == "oss" {
			switches++
			garble(name, func(st map[string]any) { st["in"], st["out"] = []int{1, 1}, []int{2, 3} })
			if err := repair(); err == nil {
				t.Errorf("reconcile accepted %s with input port 1 connected twice", name)
			}
			dev.Arm(nil)
		}
	}
	if switches == 0 {
		t.Fatal("the toy region has no switch to garble")
	}
	if err := repair(); err != nil {
		t.Fatalf("reconcile after the devices answer truly again: %v", err)
	}
}
