package daemon

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"iris/internal/control"
	"iris/internal/control/devicetest"
	"iris/internal/fabric"
	"iris/internal/hose"
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
	caps := rig.Dep.Region.HoseCaps()
	for dc := range caps {
		caps[dc] *= 0.7
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

// seededRig brings up the generated region of seed 1 with dcs DCs of 10
// fiber pairs × 40 wavelengths (at 20 DCs, the bench's region), every
// device wrapped into shims unless shims is nil.
func seededRig(t testing.TB, dcs int, shims devicetest.Set) *fabric.Rig {
	t.Helper()
	rig, err := fabric.BringUp(fabric.BringUpConfig{Seed: 1, DCs: dcs, DCCapacity: 10, Lambda: 40, WrapDevice: wrapIn(shims)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rig.Close)
	return rig
}

// denseRegion brings up a generated region under a redraw feed and steps
// it to its first committed allocation.
func denseRegion(t *testing.T, dcs int) (*fabric.Rig, *Daemon) {
	t.Helper()
	rig := seededRig(t, dcs, nil)
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
// back, on any device, is reported with the device's name — by Audit and
// by the next probe round, which compares the same states with the same
// verdict. (Fabric-built regions carry no channel emulators; control's own
// tests cover a flipped emulator channel.)
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
	failures := func() float64 { return counterValue(t, d.Registry(), "iris_audit_failures_total") }
	// probe runs one probe round and returns whether it found a mismatch.
	probe := func() (found bool, st Status) {
		t.Helper()
		before := failures()
		d.ProbeOnce()
		return failures() > before, d.Status()
	}
	wantReport := func(dev, what string) {
		t.Helper()
		err := d.Audit()
		if err == nil || !strings.Contains(err.Error(), dev) || !strings.Contains(err.Error(), what) {
			t.Fatalf("audit after flipping %s = %v, want a %s mismatch naming it", dev, err, what)
		}
		found, st := probe()
		if !found || st.LastAuditOK || !st.NeedRepair || st.LastError != "probe: audit: "+err.Error() {
			t.Fatalf("probe after flipping %s: found %v, status %+v; want the audit's mismatch %q", dev, found, st, err)
		}
	}
	wantClean := func(dev string) {
		t.Helper()
		if err := d.Audit(); err != nil {
			t.Fatalf("audit after restoring %s: %v", dev, err)
		}
		if found, _ := probe(); found {
			t.Fatalf("probe after restoring %s found a mismatch", dev)
		}
		if !d.Healthy() {
			t.Fatalf("a probe failed: %+v", d.Status().Devices)
		}
	}
	wantClean("nothing")

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
		wantClean(dev)
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
		wantClean(dev)
	})
}

// TestLongRunningRegionStaysFlat steps a region through 300 dense ticks
// and checks that the live heap stops growing: the daemon is built to run
// indefinitely.
func TestLongRunningRegionStaysFlat(t *testing.T) {
	_, d := denseRegion(t, 10)
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
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
	heap150 := heap()
	step(150)
	heap300 := heap()
	if err := d.Audit(); err != nil {
		t.Fatal(err)
	}

	t.Logf("after 150 ticks: %d KiB live; after 300: %d KiB", heap150>>10, heap300>>10)
	// When every device kept an unbounded operation log, the same 150
	// ticks added tens of megabytes.
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

// TestProbeAuditsAQuietRegion: a region whose traffic does not move makes
// no change to audit, so drift there is found by the probe. One live
// transceiver disabled behind the controller's back is reported by the
// next probe round on /status, naming the device and the field, and the
// next Step repairs it.
func TestProbeAuditsAQuietRegion(t *testing.T) {
	rig := seededRig(t, 6, nil)
	tm, _ := newRedrawFeed(rig, 1).Next()
	d, err := New(Config{Fab: rig.Fab, Controller: rig.Testbed.Controller,
		Feed: traffic.NewReplay(tm, tm, tm, tm, tm), Logger: testLogger(t)})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()
	status := func() (st Status) {
		t.Helper()
		res, err := srv.Client().Get(srv.URL + "/status")
		if err != nil {
			t.Fatal(err)
		}
		defer res.Body.Close()
		if err := json.NewDecoder(res.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st
	}
	for i := 0; i < 2; i++ { // the commit, then a shift that changes nothing
		d.ProbeOnce()
		d.Step()
	}
	if st := status(); !st.Converged || st.Circuits == 0 || st.LastError != "" {
		t.Fatalf("region did not converge: %+v", st)
	}

	d.mu.Lock()
	exp := d.fab.Expected()
	d.mu.Unlock()
	dev, idx := "", -1
	for b, enabled := range exp.Enabled {
		if i := slices.Index(enabled, true); i >= 0 && (dev == "" || b < dev) {
			dev, idx = b, i
		}
	}
	if _, err := rig.Testbed.Devices[dev].Handle("disable-batch", map[string]any{"idxs": []int{idx}}); err != nil {
		t.Fatal(err)
	}
	d.ProbeOnce()
	st := status()
	want := fmt.Sprintf("%s: enabled[%d] false, want true", dev, idx)
	if st.LastAuditOK || !st.NeedRepair || st.Converged || !strings.Contains(st.LastError, want) {
		t.Fatalf("/status after the probe round = %+v, want last_audit_ok false and %q", st, want)
	}
	if !st.Healthy {
		t.Errorf("a mismatch tripped a breaker: %+v", st.Devices)
	}

	d.Step()
	if st := status(); !st.Converged || st.NeedRepair || !st.LastAuditOK || st.LastError != "" {
		t.Fatalf("/status after the next step = %+v, want the drift repaired", st)
	}
	if err := d.Audit(); err != nil {
		t.Fatalf("audit after the repair: %v", err)
	}
}

// TestSparseCommitAuditsWhatItTouched: a committed Step() sends no "state"
// request. Each device the change names gets exactly one write that asks
// for its state, the last request of the change to it — its last phase's
// batch — and no other device gets a request. A probe round still sends
// every device one "state".
func TestSparseCommitAuditsWhatItTouched(t *testing.T) {
	shims := devicetest.Set{}
	rig := seededRig(t, 6, shims)
	base, _ := newRedrawFeed(rig, 1).Next()
	shifts := []*traffic.Matrix{base}
	for _, p := range base.Pairs()[:6] { // one pair at a time, down and back
		low := shifts[len(shifts)-1].Clone()
		low.Set(p, base.Get(p)/3)
		shifts = append(shifts, low, low.Clone())
		shifts[len(shifts)-1].Set(p, base.Get(p))
	}
	d, err := New(Config{Fab: rig.Fab, Controller: rig.Testbed.Controller, Feed: traffic.NewReplay(shifts...)})
	if err != nil {
		t.Fatal(err)
	}
	all := rig.Testbed.Controller.Devices()

	sparse := 0
	for step := 0; step < len(shifts); step++ {
		shims.Take()
		audits := counterValue(t, d.Registry(), "iris_audit_total")
		d.Step()
		if st := d.Status(); !st.Converged || !st.LastAuditOK {
			t.Fatalf("step %d did not converge: %+v", step, st)
		}
		touched := 0
		for dev, calls := range shims.Take() {
			touched++
			if slices.Contains(calls, devicetest.Call{Op: "state"}) {
				t.Errorf("step %d: %s got a state request during the commit: %v", step, dev, calls)
			}
			if slices.IndexFunc(calls, func(c devicetest.Call) bool { return c.State }) != len(calls)-1 {
				t.Errorf("step %d: %s got %v, want one state-bearing write, its last", step, dev, calls)
			}
		}
		if got := counterValue(t, d.Registry(), "iris_audit_total") - audits; touched > 0 && got != 1 {
			t.Errorf("step %d: the commit ran %v audits, want 1", step, got)
		}
		if touched > 0 && touched < len(all)/2 {
			sparse++
		}

		d.ProbeOnce()
		probed := shims.Take()
		for _, dev := range all {
			if calls := probed[dev]; !slices.Equal(calls, []devicetest.Call{{Op: "state"}}) {
				t.Errorf("step %d: a probe round sent %s %v, want one state call", step, dev, calls)
			}
		}
	}
	if sparse < len(shifts)/2 {
		t.Errorf("only %d of %d changes touched fewer than half the %d devices", sparse, len(shifts), len(all))
	}
}

// sparseRedrawFeed holds a base matrix and redraws two of its pairs with
// at least two wavelengths of demand on every tick, each within its
// endpoints' hose headroom at 0.7: bench/'s tick-sparse feed.
type sparseRedrawFeed struct {
	rng      *rand.Rand
	cur      *traffic.Matrix
	base     *traffic.Matrix
	eligible []hose.Pair
	caps     map[int]float64
	use      map[int]float64
}

func newSparseRedrawFeed(rig *fabric.Rig, seed int64) *sparseRedrawFeed {
	f := &sparseRedrawFeed{rng: rand.New(rand.NewSource(seed)), caps: rig.Dep.Region.HoseCaps(), use: make(map[int]float64)}
	for dc := range f.caps {
		f.caps[dc] *= 0.7
	}
	f.base = traffic.HeavyTailed(rand.New(rand.NewSource(1)), rig.Dep.Region.Map.DCs(), f.caps, 1)
	f.cur = f.base.Clone()
	for _, p := range f.base.Pairs() {
		f.use[p.A] += f.base.Get(p)
		f.use[p.B] += f.base.Get(p)
		if f.base.Get(p) >= 2 {
			f.eligible = append(f.eligible, p)
		}
	}
	return f
}

func (f *sparseRedrawFeed) Next() (*traffic.Matrix, bool) {
	for range 2 {
		p := f.eligible[f.rng.Intn(len(f.eligible))]
		old := f.cur.Get(p)
		v := f.base.Get(p) * (1 + 0.4*(2*f.rng.Float64()-1))
		for _, dc := range [2]int{p.A, p.B} {
			v = min(v, f.caps[dc]-f.use[dc]+old)
		}
		v = max(v, 0)
		f.cur.Set(p, v)
		f.use[p.A] += v - old
		f.use[p.B] += v - old
	}
	return f.cur.Clone(), true
}

// TestCommitRPCsPerStep counts the device RPCs of a committed Step() on
// the bench's region (seed 1, 20 DCs of 10 × 40) under a sparse and a
// dense feed. None is a "state" request: the closing audit reads the
// replies of the change's last writes. The budgets are a fifth above the
// counts measured when the audit stopped sending RPCs (13.7 sparse, 89.8
// dense); with a closing audit that fetched they were 21.7 and 139.6.
func TestCommitRPCsPerStep(t *testing.T) {
	for _, c := range []struct {
		name   string
		feed   func(*fabric.Rig) traffic.Source
		steps  int
		budget float64
	}{
		{"sparse", func(rig *fabric.Rig) traffic.Source { return newSparseRedrawFeed(rig, 2) }, 60, 16.5},
		{"dense", func(rig *fabric.Rig) traffic.Source { return newRedrawFeed(rig, 2) }, 15, 105},
	} {
		t.Run(c.name, func(t *testing.T) {
			shims := devicetest.Set{}
			rig := seededRig(t, 20, shims)
			d, err := New(Config{Fab: rig.Fab, Controller: rig.Testbed.Controller, Feed: c.feed(rig)})
			if err != nil {
				t.Fatal(err)
			}
			d.Step() // the first allocation
			commits, rpcs := 0, 0
			for step := 0; step < c.steps; step++ {
				shims.Take()
				before := d.Status().LastReconfigID
				d.Step()
				st := d.Status()
				if !st.Converged || st.LastError != "" {
					t.Fatalf("step %d: %+v", step, st)
				}
				if st.LastReconfigID == before {
					continue
				}
				commits++
				for dev, calls := range shims.Take() {
					if slices.Contains(calls, devicetest.Call{Op: "state"}) {
						t.Errorf("step %d: %s got a state request: %v", step, dev, calls)
					}
					rpcs += len(calls)
				}
			}
			if commits < c.steps/2 {
				t.Fatalf("only %d of %d steps committed", commits, c.steps)
			}
			per := float64(rpcs) / float64(commits)
			t.Logf("%s: %.1f device RPCs per committed Step() over %d commits", c.name, per, commits)
			if per > c.budget {
				t.Errorf("%.1f device RPCs per committed Step(), budget %v", per, c.budget)
			}
		})
	}
}

// TestRepairRPCsPerPass counts the device RPCs of one repair pass on the
// bench's region (52 devices). The pass fetches every device's state once
// and closes like a commit, from its writes' replies: a clean region costs
// one "state" per device and no write, and a circuit disconnected behind
// the daemon's back adds its switch's one switch-batch, which carries the
// state the audit reads. With a closing audit that fetched again, both
// passes sent 104 "state" requests.
func TestRepairRPCsPerPass(t *testing.T) {
	shims := devicetest.Set{}
	rig := seededRig(t, 20, shims)
	d, err := New(Config{Fab: rig.Fab, Controller: rig.Testbed.Controller, Feed: newSparseRedrawFeed(rig, 2)})
	if err != nil {
		t.Fatal(err)
	}
	d.Step() // the first allocation
	all := rig.Testbed.Controller.Devices()
	if len(all) != 52 {
		t.Fatalf("the bench region has %d devices, want 52", len(all))
	}
	dev, in := firstCircuit(d)

	for _, c := range []struct {
		name  string
		drift map[string]any    // a switch-batch to dev, or nothing
		wrote []devicetest.Call // what the pass sends dev after its state
	}{
		{"clean", nil, nil},
		{"disconnected", map[string]any{"disconnect": []int{in}, "ins": []int{}, "outs": []int{}}, []devicetest.Call{{Op: "switch-batch", State: true}}},
	} {
		t.Run(c.name, func(t *testing.T) {
			if c.drift != nil {
				if _, err := rig.Testbed.Controller.Call(dev, "switch-batch", c.drift); err != nil {
					t.Fatal(err)
				}
			}
			shims.Take()
			if err := d.repair(); err != nil {
				t.Fatalf("repair: %v", err)
			}
			sent := shims.Take()
			rpcs, states, off := 0, 0, 0
			for _, name := range all {
				want := []devicetest.Call{{Op: "state"}}
				if name == dev {
					want = append(want, c.wrote...)
				}
				if calls := sent[name]; !slices.Equal(calls, want) {
					if off++; off == 1 {
						t.Errorf("%s got %v, want %v", name, calls, want)
					}
				}
				rpcs += len(sent[name])
				for _, c := range sent[name] {
					if c.Op == "state" {
						states++
					}
				}
			}
			t.Logf("%s: %d device RPCs per repair pass, %d of them state requests", c.name, rpcs, states)
			if off > 0 {
				t.Errorf("%d of %d devices got other requests than one state and %v to %s", off, len(all), c.wrote, dev)
			}
			if st := d.Status(); st.NeedRepair || !st.LastAuditOK {
				t.Fatalf("after the repair: %+v", st)
			}
			if err := d.Audit(); err != nil {
				t.Fatalf("audit after the repair: %v", err)
			}
		})
	}
}

// TestProbeOverlappingWritesReportsNothing: probe rounds run back to back
// while the daemon commits dense changes and runs repair passes. A probe
// round that fetched a state while a write was moving it, or compared it
// with intent the write had already replaced, would report a mismatch
// that is not there. None may: the devices never leave intent except
// under a write. Meant for -race -count.
func TestProbeOverlappingWritesReportsNothing(t *testing.T) {
	_, d := denseRegion(t, 6)
	stop := make(chan struct{})
	probes := make(chan int)
	go func() {
		n := 0
		for {
			select {
			case <-stop:
				probes <- n
				return
			default:
				d.ProbeOnce()
				n++
			}
		}
	}()
	for i := 0; i < 40; i++ {
		if i%5 == 0 { // a repair pass: a full fetch, audit and, of drift, a write
			d.mu.Lock()
			d.needRepair = true
			d.mu.Unlock()
		}
		d.Step()
		if st := d.Status(); st.LastError != "" || !st.Converged {
			close(stop)
			<-probes
			t.Fatalf("step %d: %+v", i, st)
		}
	}
	close(stop)
	n := <-probes
	if got := counterValue(t, d.Registry(), "iris_audit_failures_total"); got != 0 {
		t.Errorf("%d probe rounds overlapping 40 commits reported %v mismatches", n, got)
	}
	if n < 40 {
		t.Errorf("only %d probe rounds ran beside 40 commits", n)
	}
}
