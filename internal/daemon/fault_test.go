package daemon

import (
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"iris/internal/control"
	"iris/internal/control/devicetest"
	"iris/internal/fabric"
	"iris/internal/telemetry"
	"iris/internal/traffic/traffictest"
)

// fakeClock is an injectable, manually advanced clock.
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

// wrapIn is a bring-up's WrapDevice that wraps every device into shims,
// or none when shims is nil.
func wrapIn(shims devicetest.Set) func(string, control.Device) control.Device {
	if shims == nil {
		return nil
	}
	return func(name string, dev control.Device) control.Device { return shims.Wrap(name, dev) }
}

// faultRig brings up the toy region with every device wrapped, returning
// the shims by device name. Probes use the "state" op (not protocol-level
// "ping"), so every fault a hook injects is visible to the daemon's
// supervision.
func faultRig(t *testing.T, mutate func(*fabric.BringUpConfig)) (*fabric.Rig, devicetest.Set) {
	t.Helper()
	shims := devicetest.Set{}
	rig := toyRig(t, func(cfg *fabric.BringUpConfig) {
		cfg.WrapDevice = wrapIn(shims)
		if mutate != nil {
			mutate(cfg)
		}
	})
	return rig, shims
}

// breakerOf returns the named device's breaker string from Status.
func breakerOf(t *testing.T, d *Daemon, name string) string {
	t.Helper()
	for _, ds := range d.Status().Devices {
		if ds.Name == name {
			return ds.Breaker
		}
	}
	t.Fatalf("device %s not in status", name)
	return ""
}

// pickVictim returns DC 0's transceiver bank: both toy traffic pairs
// terminate at DC 0, so every shift's reconfiguration must touch it —
// which makes a fault injected there deterministically fatal mid-flight.
func pickVictim(rig *fabric.Rig) string {
	return rig.Fab.XcvrName(rig.Dep.Region.Map.DCs()[0])
}

// TestBreakerTripAndRecovery is the headline fault-injection scenario from
// the issue: a device fails mid-reconfiguration, the breaker opens with
// exponential backoff, the region holds the last-known-good allocation,
// and once the device heals the daemon reconciles and re-converges.
func TestBreakerTripAndRecovery(t *testing.T) {
	rig, shims := faultRig(t, nil)
	clock := newFakeClock()
	feed := traffictest.NewReplay(
		toyMatrix(rig, 60, 45),
		toyMatrix(rig, 20, 95),
		toyMatrix(rig, 80, 10),
	)
	reg := telemetry.NewRegistry()
	d, err := New(Config{
		Fab:              rig.Fab,
		Controller:       rig.Testbed.Controller,
		Feed:             feed,
		FailureThreshold: 2,
		BackoffBase:      100 * time.Millisecond,
		BackoffMax:       400 * time.Millisecond,
		Seed:             1,
		Registry:         reg,
		Now:              clock.Now,
		Logger:           testLogger(t),
	})
	if err != nil {
		t.Fatal(err)
	}

	// Shift 1 converges cleanly.
	d.ProbeOnce()
	d.Step()
	if err := d.Audit(); err != nil {
		t.Fatalf("audit after clean shift: %v", err)
	}
	lkg := d.Status().Allocation

	// Inject: an OSS starts failing; shift 2's reconfiguration dies
	// mid-flight.
	victim := pickVictim(rig)
	shims[victim].Arm(devicetest.Fail)
	if done := d.Step(); done {
		t.Fatal("feed exhausted prematurely")
	}
	if got := counterValue(t, reg, "iris_reconfig_failures_total"); got != 1 {
		t.Fatalf("iris_reconfig_failures_total = %v, want 1", got)
	}
	st := d.Status()
	if !st.NeedRepair {
		t.Fatal("failed reconfiguration did not schedule a repair")
	}
	if !st.PendingShift {
		t.Fatal("failed shift was dropped instead of retried")
	}

	// One failed probe reaches the threshold (reconfig failure counted
	// one): the breaker opens.
	d.ProbeOnce()
	if got := breakerOf(t, d, victim); got != "open" {
		t.Fatalf("breaker = %q after threshold, want open", got)
	}
	if d.Healthy() {
		t.Fatal("Healthy() with an open breaker")
	}
	if out := metricsText(t, reg); !strings.Contains(out, `iris_breaker_trips_total{device="`+victim+`"} 1`+"\n") {
		t.Fatalf("breaker trips not 1:\n%s", out)
	}

	// Degraded: steps are skipped, the LKG allocation is held.
	d.Step()
	if got := counterValue(t, reg, "iris_daemon_skipped_steps_total"); got != 1 {
		t.Fatalf("skipped steps = %v, want 1", got)
	}
	held := d.Status()
	if len(held.Allocation) != len(lkg) {
		t.Fatalf("degraded allocation %v, want held LKG %v", held.Allocation, lkg)
	}
	for i := range lkg {
		if held.Allocation[i] != lkg[i] {
			t.Fatalf("degraded allocation %v, want held LKG %v", held.Allocation, lkg)
		}
	}

	// Cooldown expires while the device is still broken: the half-open
	// trial fails and the breaker re-opens with a doubled cooldown.
	clock.advance(150 * time.Millisecond) // past the first jittered quarantine (≤100ms)
	d.ProbeOnce()
	if got := breakerOf(t, d, victim); got != "open" {
		t.Fatalf("breaker = %q after failed half-open trial, want open", got)
	}

	// Heal the device; after the (doubled, ≤200ms) cooldown the half-open
	// trial succeeds and the breaker closes.
	shims[victim].Arm(nil)
	clock.advance(250 * time.Millisecond)
	d.ProbeOnce()
	if got := breakerOf(t, d, victim); got != "closed" {
		t.Fatalf("breaker = %q after heal, want closed", got)
	}
	if !d.Healthy() {
		t.Fatal("not Healthy() after heal")
	}

	// The next step repairs the partially applied change and converges on
	// the pending shift.
	if done := d.Step(); done {
		t.Fatal("feed exhausted prematurely")
	}
	if err := d.Audit(); err != nil {
		t.Fatalf("audit after recovery: %v", err)
	}
	st = d.Status()
	if st.NeedRepair || st.PendingShift || !st.Converged {
		t.Fatalf("not reconverged after heal: %+v", st)
	}

	// Shift 3 and drain the feed.
	d.Step()
	if err := d.Audit(); err != nil {
		t.Fatalf("audit after final shift: %v", err)
	}
	if done := d.Step(); !done {
		t.Fatal("feed not exhausted")
	}

	// The metrics surface reflects the injected failure.
	out := metricsText(t, reg)
	if !strings.Contains(out, `iris_probe_failures_total{device="`+victim+`"}`) {
		t.Errorf("metrics missing probe failures for %s:\n%s", victim, out)
	}
	// Two trips: the initial open plus the failed half-open trial.
	if !strings.Contains(out, `iris_breaker_trips_total{device="`+victim+`"} 2`) {
		t.Errorf("metrics missing breaker trips for %s:\n%s", victim, out)
	}
}

// TestHungDeviceTripsBreaker verifies the transport deadline converts a
// hang into a failure, and that the poisoned connection redials after the
// device unsticks. The probe round waits out the hung device's deadline
// with the requests to the devices sorted after it already answered:
// those replies arrived in time, so only the hung device's breaker opens
// and only it counts a probe failure.
func TestHungDeviceTripsBreaker(t *testing.T) {
	rig, shims := faultRig(t, func(cfg *fabric.BringUpConfig) {
		cfg.Dial = control.DialOptions{RPCTimeout: 75 * time.Millisecond}
	})
	clock := newFakeClock()
	reg := telemetry.NewRegistry()
	d, err := New(Config{
		Fab:              rig.Fab,
		Controller:       rig.Testbed.Controller,
		Feed:             traffictest.NewReplay(toyMatrix(rig, 60, 45)),
		FailureThreshold: 1,
		BackoffBase:      50 * time.Millisecond,
		BackoffMax:       50 * time.Millisecond,
		Seed:             1,
		Registry:         reg,
		Now:              clock.Now,
		Logger:           testLogger(t),
	})
	if err != nil {
		t.Fatal(err)
	}

	victim := pickVictim(rig)
	devs := rig.Testbed.Controller.Devices()
	if i := slices.Index(devs, victim); i < 0 || i == len(devs)-1 {
		t.Fatalf("victim %s is not followed by another device in %v", victim, devs)
	}
	stall, release := devicetest.Stall(t)
	shims[victim].Arm(stall)
	d.ProbeOnce()
	if got := breakerOf(t, d, victim); got != "open" {
		t.Fatalf("breaker = %q after hung probe, want open", got)
	}
	for _, dev := range devs {
		if got := breakerOf(t, d, dev); dev != victim && got != "closed" {
			t.Errorf("breaker of %s = %q beside the hung %s, want closed", dev, got, victim)
		}
	}
	counted := false
	for _, line := range strings.Split(metricsText(t, reg), "\n") {
		if !strings.HasPrefix(line, "iris_probe_failures_total{") {
			continue
		}
		if line != `iris_probe_failures_total{device="`+victim+`"} 1` {
			t.Errorf("probe failures beside the hung %s: %s", victim, line)
		}
		counted = true
	}
	if !counted {
		t.Errorf("the hung %s counts no probe failure", victim)
	}

	// Unstick; after cooldown the trial probe must succeed over a freshly
	// redialled connection.
	release()
	clock.advance(100 * time.Millisecond)
	d.ProbeOnce()
	if got := breakerOf(t, d, victim); got != "closed" {
		t.Fatalf("breaker = %q after unstick, want closed", got)
	}

	// A healthy region converges normally afterwards.
	d.Step()
	if err := d.Audit(); err != nil {
		t.Fatalf("audit after unstick: %v", err)
	}
}

// TestProbeCountsAMalformedStateAgainstTheBreaker: a state reply that is
// not well formed is the device's fault, as in the audit. Each probe round
// counts it against the device's breaker, which opens at the threshold,
// and reports the audit failed.
func TestProbeCountsAMalformedStateAgainstTheBreaker(t *testing.T) {
	rig, shims := faultRig(t, nil)
	name := pickVictim(rig)
	d, err := New(Config{Fab: rig.Fab, Controller: rig.Testbed.Controller,
		Feed: traffictest.NewReplay(toyMatrix(rig, 60, 45)), Now: newFakeClock().Now})
	if err != nil {
		t.Fatal(err)
	}
	d.Step()
	// A bank state no bank could send.
	shims[name].Arm(func(op string, args map[string]any, next devicetest.Next) (map[string]any, error) {
		if op == "state" {
			return map[string]any{"tuned": "zz", "enabled": "0", "lambda": 40}, nil
		}
		return next(op, args)
	})
	for i := 0; i < d.cfg.FailureThreshold; i++ {
		if breakerOf(t, d, name) != "closed" {
			t.Fatalf("breaker opened after %d probe rounds, want %d", i, d.cfg.FailureThreshold)
		}
		d.ProbeOnce()
	}
	st := d.Status()
	if got := breakerOf(t, d, name); got != "open" || st.LastAuditOK || !st.NeedRepair || !strings.Contains(st.LastError, name) {
		t.Fatalf("after %d probe rounds of a malformed state: breaker %s, status %+v", d.cfg.FailureThreshold, got, st)
	}
}

// lyingRegion brings up the toy region, commits its first allocation
// honestly and, before the write named, makes the first device that
// answers a write with its state alter that one reply; it returns the
// daemon and that device. The device is left as the write put it. Lie
// "drop" removes the first circuit from a switch's reply, "malformed"
// answers a state no device sends, and "none" answers with no state at
// all. A "commit" is the next Step(), which commits a second allocation.
// A "repair" is the Step() that repairs one circuit disconnected behind
// the daemon's back: the switch's one write is the only reply the lie can
// alter, and the failed repair leaves the second allocation to the next
// Step().
func lyingRegion(t *testing.T, lie, write string) (*Daemon, string) {
	t.Helper()
	rig, shims := faultRig(t, nil)
	d, err := New(Config{Fab: rig.Fab, Controller: rig.Testbed.Controller,
		Feed: traffictest.NewReplay(toyMatrix(rig, 60, 45), toyMatrix(rig, 20, 70))})
	if err != nil {
		t.Fatal(err)
	}
	d.Step()
	if st := d.Status(); !st.Converged || !st.LastAuditOK {
		t.Fatalf("first step: %+v", st)
	}
	if write == "repair" {
		dev, in := firstCircuit(d)
		if _, err := rig.Testbed.Devices[dev].Handle("switch-batch",
			map[string]any{"disconnect": []int{in}, "ins": []int{}, "outs": []int{}}); err != nil {
			t.Fatal(err)
		}
		d.mu.Lock()
		d.needRepair = true
		d.mu.Unlock()
	}
	var hit atomic.Value // the name of the device whose reply was altered
	for name, dev := range shims {
		dev.Arm(func(op string, args map[string]any, next devicetest.Next) (map[string]any, error) {
			res, err := next(op, args)
			if asked, _ := args["state"].(bool); err != nil || !asked {
				return res, err
			}
			ins, _ := res["in"].([]int)
			if lie == "drop" && len(ins) == 0 || !hit.CompareAndSwap(nil, name) {
				return res, err
			}
			switch lie {
			case "drop":
				outs := res["out"].([]int)
				return map[string]any{"in": ins[1:], "out": outs[1:], "ports": res["ports"]}, nil
			case "malformed":
				return map[string]any{"in": "0,1", "tuned": 7, "enabled": "yes"}, nil
			default:
				return nil, nil
			}
		})
	}
	d.Step()
	if hit.Load() == nil {
		t.Fatalf("the %s sent no write the lie could alter", write)
	}
	return d, hit.Load().(string)
}

// firstCircuit returns the first circuit of the committed intent: its
// switch and input port, the lowest of each.
func firstCircuit(d *Daemon) (dev string, in int) {
	d.mu.Lock()
	exp := d.fab.Expected()
	d.mu.Unlock()
	for sw, cross := range exp.Cross {
		for i := range cross {
			if dev == "" || sw < dev || (sw == dev && i < in) {
				dev, in = sw, i
			}
		}
	}
	return dev, in
}

// afterTheLie clears what a lying reply left: the commit's by a repair
// pass, the repair's by the next Step(), which repairs and commits the
// second allocation. Either way the fetch finds the device at intent (the
// lie was only in the reply), so the repair writes nothing and passes.
func afterTheLie(t *testing.T, d *Daemon, write string) {
	t.Helper()
	if write == "commit" {
		if err := d.repair(); err != nil {
			t.Fatalf("repair: %v", err)
		}
		return
	}
	d.Step()
	if st := d.Status(); !st.Converged || st.NeedRepair || st.LastError != "" {
		t.Fatalf("the Step after a failed repair: %+v", st)
	}
}

// TestLyingWriteReplyFailsTheCommit: the closing audit compares each
// write reply's state with intent, a commit's and a repair's, so a switch
// that answers its last write with one circuit missing fails the write
// with an audit error naming the switch and the field, and a repair is
// due. The repair's fresh fetch finds the switch at intent (the lie was
// only in the reply), its audit passes and clears the flag, and an audit
// then passes too.
func TestLyingWriteReplyFailsTheCommit(t *testing.T) {
	for _, write := range []string{"commit", "repair"} {
		t.Run(write, func(t *testing.T) {
			d, name := lyingRegion(t, "drop", write)
			st := d.Status()
			if !strings.Contains(st.LastError, "audit "+name+": cross map") || !st.NeedRepair || st.LastAuditOK {
				t.Fatalf("after a reply missing a circuit of %s: %+v", name, st)
			}
			if got := counterValue(t, d.Registry(), "iris_audit_failures_total"); got != 1 {
				t.Errorf("%v audit failures, want 1", got)
			}
			afterTheLie(t, d, write)
			if st := d.Status(); st.NeedRepair || !st.LastAuditOK {
				t.Fatalf("after the repair: %+v", st)
			}
			if err := d.Audit(); err != nil {
				t.Fatalf("audit after the repair: %v", err)
			}
		})
	}
}

// TestBadWriteReplyFeedsTheBreaker: a write reply whose state is not well
// formed, or that carries none though the write asked for it, is the
// device's fault: the audit closing the commit or the repair fails with a
// *DeviceError that counts against the device's breaker, and a repair is
// due.
func TestBadWriteReplyFeedsTheBreaker(t *testing.T) {
	for _, mode := range []string{"malformed", "none"} {
		t.Run(mode, func(t *testing.T) {
			for _, write := range []string{"commit", "repair"} {
				t.Run(write, func(t *testing.T) {
					d, name := lyingRegion(t, mode, write)
					st := d.Status()
					if !strings.Contains(st.LastError, "device "+name) || !st.NeedRepair || st.LastAuditOK {
						t.Fatalf("after a %s reply from %s: %+v", mode, name, st)
					}
					for _, ds := range st.Devices {
						want := 0
						if ds.Name == name {
							want = 1
						}
						if ds.ConsecutiveFailures != want {
							t.Errorf("%s: %d consecutive failures, want %d", ds.Name, ds.ConsecutiveFailures, want)
						}
					}
					afterTheLie(t, d, write)
				})
			}
		})
	}
}
