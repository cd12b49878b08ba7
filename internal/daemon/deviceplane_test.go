package daemon

import (
	"context"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"iris/internal/control"
	"iris/internal/fabric"
	"iris/internal/traffic"
)

// redrawFeed redraws every pair around a heavy-tailed base on every tick
// (base × (1 ± 0.4u), hose-clamped at 0.7), so every tick re-solves the
// whole region and reconfigures most of its devices. It never exhausts.
type redrawFeed struct {
	rng  *rand.Rand
	base *traffic.Matrix
	caps map[int]float64
}

func newRedrawFeed(rig *fabric.Rig, seed int64) *redrawFeed {
	caps := make(map[int]float64)
	for dc, c := range rig.Dep.Region.Capacity {
		caps[dc] = 0.7 * float64(c*rig.Dep.Region.Lambda)
	}
	rng := rand.New(rand.NewSource(seed))
	return &redrawFeed{rng: rng, caps: caps, base: traffic.HeavyTailed(rng, rig.Dep.Region.Map.DCs(), caps, 1)}
}

func (f *redrawFeed) Next() (*traffic.Matrix, bool) {
	m := traffic.NewMatrix(f.base.DCs)
	for _, p := range f.base.Pairs() {
		m.Set(p, f.base.Get(p)*(1+0.4*(2*f.rng.Float64()-1)))
	}
	m.ClampToHose(f.caps)
	return m, true
}

// denseRegion brings up a generated region under a redraw feed and steps
// it to its first committed allocation.
func denseRegion(t *testing.T, dcs int) (*fabric.Rig, *Daemon) {
	t.Helper()
	rig, err := fabric.BringUp(fabric.BringUpConfig{Seed: 1, DCs: dcs, DCCapacity: 10, Lambda: 40})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rig.Close)
	d, err := New(Config{Fab: rig.Fab, Controller: rig.Testbed.Controller, Feed: newRedrawFeed(rig, 1)})
	if err != nil {
		t.Fatal(err)
	}
	d.Step()
	if st := d.Status(); !st.Converged || st.Circuits == 0 {
		t.Fatalf("region did not commit its first allocation: %+v", st)
	}
	return rig, d
}

// TestAuditSeesEveryDeviceFlip: the audit is a full fetch-and-compare, so
// one transceiver or one cross-connect changed behind the controller's
// back, on any device, is reported with the device's name. (Fabric-built
// regions carry no channel emulators; control's own tests cover a flipped
// emulator channel.)
func TestAuditSeesEveryDeviceFlip(t *testing.T) {
	rig, d := denseRegion(t, 6)
	if err := d.Audit(); err != nil {
		t.Fatalf("audit of a freshly committed region: %v", err)
	}
	d.mu.Lock()
	exp := d.fab.Expected() // the committed fabric, not the rig's empty one
	d.mu.Unlock()
	flip := func(dev, op string, args map[string]any) {
		t.Helper()
		if _, err := rig.Testbed.Devices[dev].Handle(op, args); err != nil {
			t.Fatalf("%s %s %v: %v", dev, op, args, err)
		}
	}
	wantReport := func(dev, what string) {
		t.Helper()
		err := d.Audit()
		if err == nil || !strings.Contains(err.Error(), dev) || !strings.Contains(err.Error(), what) {
			t.Fatalf("audit after flipping %s = %v, want a %s mismatch naming it", dev, err, what)
		}
	}

	t.Run("transceiver", func(t *testing.T) {
		// The last live transceiver of the last bank: nothing samples the
		// head of a vector or the first device.
		dev, idx := "", -1
		for b, enabled := range exp.Enabled {
			for i, on := range enabled {
				if on && (b > dev || (b == dev && i > idx)) {
					dev, idx = b, i
				}
			}
		}
		flip(dev, "disable-batch", map[string]any{"idxs": []int{idx}})
		wantReport(dev, "enabled")
		flip(dev, "enable-batch", map[string]any{"idxs": []int{idx}})
		if err := d.Audit(); err != nil {
			t.Fatalf("audit after restoring %s: %v", dev, err)
		}
	})

	t.Run("cross-connect", func(t *testing.T) {
		dev, in := "", -1
		for d, cross := range exp.Cross {
			for i := range cross {
				if d > dev || (d == dev && i > in) {
					dev, in = d, i
				}
			}
		}
		flip(dev, "switch-batch", map[string]any{"disconnect": []int{in}, "ins": []int{}, "outs": []int{}})
		wantReport(dev, "cross map")
		flip(dev, "switch-batch", map[string]any{"disconnect": []int{}, "ins": []int{in}, "outs": []int{exp.Cross[dev][in]}})
		if err := d.Audit(); err != nil {
			t.Fatalf("audit after restoring %s: %v", dev, err)
		}
	})
}

// TestLongRunningRegionStaysFlat steps a region through 300 dense ticks
// and checks that what a device remembers, and the live heap with it,
// stop growing: the daemon is built to run indefinitely.
func TestLongRunningRegionStaysFlat(t *testing.T) {
	rig, d := denseRegion(t, 10)
	retained := func() (entries int, heap uint64) {
		for _, dev := range rig.Testbed.Devices {
			entries += len(dev.(interface{ Log() []control.LogEntry }).Log())
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return entries, ms.HeapAlloc
	}
	step := func(ticks int) {
		t.Helper()
		for i := 0; i < ticks; i++ {
			d.Step()
			if st := d.Status(); st.LastError != "" {
				t.Fatalf("tick failed: %s", st.LastError)
			}
		}
	}

	step(150)
	entries150, heap150 := retained()
	step(150)
	entries300, heap300 := retained()
	if err := d.Audit(); err != nil {
		t.Fatal(err)
	}

	t.Logf("after 150 ticks: %d log entries, %d KiB live; after 300: %d entries, %d KiB",
		entries150, heap150>>10, entries300, heap300>>10)
	// Every device has long filled its ring (a dense tick logs on every
	// bank and every switch), except amplifiers that seldom toggle.
	perDevice := entries300 / len(rig.Testbed.Devices)
	if grown := entries300 - entries150; grown > len(rig.Testbed.Devices) || perDevice > 128 {
		t.Errorf("device logs grew from %d to %d entries over 150 ticks (%d per device)", entries150, entries300, perDevice)
	}
	// At the parent commit the same 150 ticks added tens of megabytes.
	const slack = 2 << 20
	if heap300 > heap150+slack {
		t.Errorf("live heap grew from %d to %d bytes over 150 ticks", heap150, heap300)
	}
}

// TestConcurrentFetchesNeitherDeadlockNorMisframe: an audit holds every
// device's connection from its request to its reply, so everything else
// that talks to devices has to interleave with it. Two audits, a repair,
// a probe round and a reconfiguration (one that restates the books, so
// every audit must pass) run at once on one controller for 200 rounds;
// any error is a mis-framed or stale reply, and a round that does not end
// is a deadlock. Meant for -race.
func TestConcurrentFetchesNeitherDeadlockNorMisframe(t *testing.T) {
	rig, d := denseRegion(t, 6)
	ctl := rig.Testbed.Controller
	ctx := context.Background()
	d.mu.Lock()
	exp := d.fab.Expected()
	d.mu.Unlock()
	// The last transceiver of a bank is the last its pool hands out: it is
	// drained and untuned, and the change says so again.
	bank := rig.Fab.XcvrName(rig.Dep.Region.Map.DCs()[0])
	idle := len(exp.Enabled[bank]) - 1
	if exp.Enabled[bank][idle] || exp.Tuned[bank][idle] != -1 {
		t.Fatalf("transceiver %d of %s is in use", idle, bank)
	}
	restate := control.Change{
		Drain:   []control.TransceiverOp{{Device: bank, Idx: idle}},
		Retunes: []control.TransceiverOp{{Device: bank, Idx: idle, Wavelength: -1}},
	}
	for dev := range exp.Amps {
		restate.Amps = append(restate.Amps, control.AmpOp{Device: dev, Enable: exp.Amps[dev]})
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		for round := 0; round < 200; round++ {
			var wg sync.WaitGroup
			for what, run := range map[string]func() error{
				"audit":  d.Audit,
				"audit2": func() error { return ctl.AuditCtx(ctx, exp) },
				"repair": func() error {
					ch, err := ctl.Repair(ctx, exp)
					if err == nil && !fabric.EmptyChange(ch) {
						t.Errorf("round %d: repair of matching devices = %+v", round, ch)
					}
					return err
				},
				"probe":       func() error { d.ProbeOnce(); return nil },
				"reconfigure": func() error { _, err := ctl.Reconfigure(ctx, restate); return err },
			} {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if err := run(); err != nil {
						t.Errorf("round %d: %s: %v", round, what, err)
					}
				}()
			}
			wg.Wait()
		}
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Minute):
		t.Fatal("200 rounds did not finish: a fetch is deadlocked")
	}
	if !d.Healthy() {
		t.Errorf("a probe failed along the way: %+v", d.Status().Devices)
	}
}
