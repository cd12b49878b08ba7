package control

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"net"
	"strings"
	"testing"
	"time"

	"iris/internal/control/devicetest"
	"iris/internal/trace"
)

// TestCallTimesOutOnHungDevice: a device that stops answering must fail
// the call by the RPC deadline instead of wedging the controller forever
// — and once it answers again, the client must transparently reconnect.
// Call is one send and its recv, as Controller.Call does for a named device.
func (c *client) Call(op string, args map[string]any) (map[string]any, error) {
	if err := c.send(op, args, time.Now()); err != nil {
		return nil, err
	}
	return c.recv()
}

func TestCallTimesOutOnHungDevice(t *testing.T) {
	dev := devicetest.Wrap(NewOSS(4, 0))
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		serve(ctx, l, dev)
	}()
	t.Cleanup(func() { cancel(); l.Close(); <-done })
	stall, _ := devicetest.Stall(t)

	cl, err := dialDeviceTimeout(l.Addr(), time.Second, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if _, err := cl.Call("state", nil); err != nil {
		t.Fatalf("healthy call failed: %v", err)
	}

	dev.Arm(stall)
	start := time.Now()
	if _, err := cl.Call("state", nil); err == nil {
		t.Fatal("call to hung device succeeded")
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("hung call took %v, want ~50ms deadline", d)
	}

	// Heal the device: the next call redials and succeeds.
	dev.Arm(nil)
	if _, err := cl.Call("state", nil); err != nil {
		t.Errorf("call after heal failed (no reconnect?): %v", err)
	}
}

// TestClosedClientDoesNotRedial: Close is permanent.
func TestClosedClientDoesNotRedial(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		serve(ctx, l, NewOSS(4, 0))
	}()
	defer func() { cancel(); l.Close(); <-done }()

	cl, err := dialDeviceTimeout(l.Addr(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	cl.Close()
	if _, err := cl.Call("state", nil); err == nil {
		t.Error("call on closed client succeeded")
	}
}

// TestDeviceErrorAttribution: controller call failures carry the device
// name in a DeviceError so supervisors can attribute them.
func TestDeviceErrorAttribution(t *testing.T) {
	tb, err := StartTestbed(map[string]Device{"oss-a": NewOSS(4, 0)})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	_, err = tb.Controller.Call("oss-a", "switch-batch", switchArgs(nil, []int{99}, []int{0}))
	if err == nil {
		t.Fatal("out-of-range connect succeeded")
	}
	var de *DeviceError
	if !errors.As(err, &de) || de.Device != "oss-a" {
		t.Errorf("err = %v, want DeviceError for oss-a", err)
	}

	// Phase errors from Reconfigure preserve the attribution through
	// wrapping.
	_, err = tb.Controller.Reconfigure(context.Background(), Change{
		Switches: []OSSOp{{Device: "oss-a", In: 99, Out: 0}},
	})
	if !errors.As(err, &de) || de.Device != "oss-a" {
		t.Errorf("reconfigure err = %v, want wrapped DeviceError for oss-a", err)
	}
}

// overlapRig serves five idle banks a…e behind a controller with a 60 ms
// RPC deadline, the middle one wrapped so that a test can make it fail
// while the requests to the devices after it are already on the wire, and
// returns the wrapper and the intent the banks match.
func overlapRig(t *testing.T) (*Testbed, *devicetest.Device, Expected) {
	t.Helper()
	moody := devicetest.Wrap(NewTransceiverBank(2, 4))
	devs := map[string]Device{"c": moody}
	exp := Expected{Tuned: map[string][]int{}, Enabled: map[string][]bool{}}
	for _, name := range []string{"a", "b", "c", "d", "e"} {
		if devs[name] == nil {
			devs[name] = NewTransceiverBank(2, 4)
		}
		exp.Tuned[name], exp.Enabled[name] = []int{-1, -1}, []bool{false, false}
	}
	tb, err := StartTestbedWithOptions(devs, DialOptions{RPCTimeout: 60 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tb.Close)
	if err := tb.Controller.Audit(exp); err != nil {
		t.Fatal(err)
	}
	return tb, moody, exp
}

// TestAuditThatStopsEarlyLeavesNoStaleReply: when device c of a…e fails
// the audit, the replies to the requests already sent to d and e are read
// and discarded (or, when the caller's context is cancelled, the requests
// are abandoned), and the error is the one a one-at-a-time audit gave: a
// *DeviceError naming c (a deadline for a wedged device), or the
// context's own error. Once the fault clears the next changes and audits
// pass on every connection: no reply to an abandoned request is ever read
// as the reply to a later one. The same holds for a round that mutates —
// the drain phase of a change — and the phases behind it do not run.
func TestAuditThatStopsEarlyLeavesNoStaleReply(t *testing.T) {
	tb, moody, exp := overlapRig(t)
	ctl := tb.Controller
	// drain disables the (idle) first transceiver of each bank named.
	drain := func(devs ...string) (ops []TransceiverOp) {
		for _, dev := range devs {
			ops = append(ops, TransceiverOp{Device: dev, Idx: 0})
		}
		return ops
	}
	healthy := func(t *testing.T) {
		t.Helper()
		moody.Arm(nil)
		for i := 0; i < 3; i++ {
			if _, err := ctl.Reconfigure(context.Background(), Change{Drain: drain("a", "b", "c", "d", "e")}); err != nil {
				t.Fatalf("change %d after the fault cleared: %v", i, err)
			}
			if err := ctl.Audit(exp); err != nil {
				t.Fatalf("audit %d after the fault cleared: %v", i, err)
			}
		}
		for _, dev := range ctl.Devices() {
			if _, err := ctl.Call(dev, "state", nil); err != nil {
				t.Fatalf("%s after the fault cleared: %v", dev, err)
			}
		}
	}
	wedged, _ := devicetest.Stall(t) // answers when the test ends, long past any deadline
	garble := func(op string, args map[string]any, next devicetest.Next) (map[string]any, error) {
		if op == "state" { // a state of no device kind
			return map[string]any{"tuned": "zz", "enabled": true}, nil
		}
		return next(op, args)
	}
	for _, c := range []struct {
		name     string
		hook     devicetest.Hook
		deadline bool
	}{
		{"wedged past the deadline", wedged, true},
		{"answering garbage", garble, false},
		{"refusing", devicetest.Fail, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			moody.Arm(c.hook)
			start := time.Now()
			err := ctl.Audit(exp)
			var de *DeviceError
			if !errors.As(err, &de) || de.Device != "c" || isDeadline(err) != c.deadline {
				t.Fatalf("audit = %v, want a DeviceError for c (deadline: %v)", err, c.deadline)
			}
			if took := time.Since(start); took > 250*time.Millisecond {
				t.Errorf("the audit took %v: c's 60ms deadline did not bound it", took)
			}
			if _, rerr := ctl.Repair(context.Background(), exp); !errors.As(rerr, &de) || de.Device != "c" {
				t.Errorf("repair = %v, want a DeviceError for c", rerr)
			}
			healthy(t)
		})
	}

	t.Run("cancelled between replies", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var visited []string
		err := ctl.eachState(ctx, exp, func(dev string, _ map[string]any) error {
			if visited = append(visited, dev); dev == "b" {
				cancel()
			}
			return nil
		})
		if !errors.Is(err, context.Canceled) || fmt.Sprint(visited) != "[a b]" {
			t.Fatalf("eachState = %v after visiting %v, want context.Canceled after [a b]", err, visited)
		}
		healthy(t)
	})

	t.Run("a device the controller does not have", func(t *testing.T) {
		unknown := Expected{Enabled: map[string][]bool{"a": {false, false}, "bb": {false}, "e": {false, false}}}
		err := ctl.Audit(unknown)
		if err == nil || !strings.Contains(err.Error(), `unknown device "bb"`) {
			t.Fatalf("audit = %v, want unknown device bb", err)
		}
		healthy(t)
	})

	// The mutating round. failedDrain runs a traced change whose drain of
	// the banks named fails — behind it a retune of a, which must not run —
	// and returns the error with the attribute of each bank's span; the
	// spans of d and e must carry behind: "discarded" when their replies
	// were read after the round stopped, "deadline_exceeded" when their
	// deadlines, which ran from the same send as c's, ran out while c's
	// reply was awaited, "abandoned" when the context was cancelled.
	tracer := trace.New(256)
	var traceID uint64
	failedDrain := func(t *testing.T, ctx context.Context, behind string, devs ...string) (map[string]string, error) {
		t.Helper()
		ch := Change{Drain: drain(devs...), Retunes: []TransceiverOp{{Device: "a", Idx: 0, Wavelength: 3}}}
		traceID++
		root := tracer.Start(traceID, "reconfig")
		start := time.Now()
		_, err := ctl.Reconfigure(trace.ContextWith(ctx, root), ch)
		took := time.Since(start)
		root.Finish()
		if err == nil || !strings.Contains(err.Error(), "drain phase") {
			t.Fatalf("reconfigure = %v, want a failed drain phase", err)
		}
		if took > 250*time.Millisecond {
			t.Errorf("the drain took %v: one 60ms deadline did not bound it", took)
		}
		if tuned, _ := tb.Devices["a"].(*TransceiverBank).Snapshot(); tuned[0] != -1 {
			t.Errorf("the retune phase ran behind the failed drain")
		}
		attrs := make(map[string]string)
		for _, ev := range tracer.Events(trace.Filter{TraceID: traceID}) {
			if ev.Name == "disable" {
				attrs[ev.Device] = ev.Attr
			}
		}
		for _, dev := range []string{"d", "e"} {
			if attrs[dev] != behind {
				t.Errorf("span of %s has attr %q, want %s", dev, attrs[dev], behind)
			}
		}
		return attrs, err
	}
	for _, c := range []struct {
		name         string
		hook         devicetest.Hook
		deadline     bool
		attr, behind string
	}{
		{"drain wedged past the deadline", wedged, true, "deadline_exceeded", "deadline_exceeded"},
		{"drain refused", devicetest.Fail, false, "", "discarded"},
	} {
		t.Run(c.name, func(t *testing.T) {
			moody.Arm(c.hook)
			attrs, err := failedDrain(t, context.Background(), c.behind, "a", "b", "c", "d", "e")
			var de *DeviceError
			if !errors.As(err, &de) || de.Device != "c" || isDeadline(err) != c.deadline {
				t.Fatalf("reconfigure = %v, want a DeviceError for c (deadline: %v)", err, c.deadline)
			}
			if attrs["a"] != "" || attrs["b"] != "" || attrs["c"] != c.attr {
				t.Errorf("span attrs %v, want a and b clean and c %q", attrs, c.attr)
			}
			healthy(t)
		})
	}

	t.Run("drain cancelled between replies", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		// c cancels before it replies, so before d's reply is awaited.
		moody.Arm(func(op string, args map[string]any, next devicetest.Next) (map[string]any, error) {
			cancel()
			return next(op, args)
		})
		if _, err := failedDrain(t, ctx, "abandoned", "a", "b", "c", "d", "e"); !errors.Is(err, context.Canceled) {
			t.Fatalf("reconfigure = %v, want context.Canceled", err)
		}
		healthy(t)
	})

	t.Run("drain of a device the controller does not have", func(t *testing.T) {
		attrs, err := failedDrain(t, context.Background(), "discarded", "a", "bb", "d", "e")
		if !strings.Contains(err.Error(), `unknown device "bb"`) || attrs["a"] != "" {
			t.Fatalf("reconfigure = %v with span attrs %v, want unknown device bb after a clean a", err, attrs)
		}
		healthy(t)
	})
}

// TestAuditSpansAreOnePerDevice: under a traced audit every device has
// one "state" child of the audit's span, attributed to it. A refusing
// device's carries its error, and the replies read and discarded behind it
// are marked so. A wedged device's carries its error and
// deadline_exceeded, and so do the ones behind it: their deadlines ran
// from the same send and ran out while its reply was awaited.
func TestAuditSpansAreOnePerDevice(t *testing.T) {
	tb, moody, exp := overlapRig(t)
	tracer := trace.New(256)
	audit := func(id uint64) (map[string]trace.Event, error) {
		root := tracer.Start(id, "audit")
		err := tb.Controller.AuditCtx(trace.ContextWith(context.Background(), root), exp)
		root.Finish()
		byDev := make(map[string]trace.Event)
		var rootID uint64
		events := tracer.Events(trace.Filter{TraceID: id})
		for _, ev := range events {
			if ev.Name == "audit" {
				rootID = ev.SpanID
			}
		}
		for _, ev := range events {
			if ev.Name != "state" {
				continue
			}
			if _, dup := byDev[ev.Device]; dup || ev.ParentID != rootID {
				t.Errorf("trace %d: state span %+v is a duplicate or not a child of the audit", id, ev)
			}
			byDev[ev.Device] = ev
		}
		if len(byDev) != 5 {
			t.Errorf("trace %d has state spans for %d devices, want 5", id, len(byDev))
		}
		return byDev, err
	}

	spans, err := audit(1)
	if err != nil {
		t.Fatal(err)
	}
	for dev, ev := range spans {
		if ev.Err != "" || ev.Attr != "" {
			t.Errorf("clean audit: span of %s = %+v", dev, ev)
		}
	}

	wedged, _ := devicetest.Stall(t)
	for i, c := range []struct {
		name    string
		hook    devicetest.Hook
		attrs   map[string]string
		failing string // the devices whose spans carry an error
	}{
		{"refusing", devicetest.Fail, map[string]string{"d": "discarded", "e": "discarded"}, "c"},
		{"wedged", wedged, map[string]string{"c": "deadline_exceeded", "d": "deadline_exceeded", "e": "deadline_exceeded"}, "cde"},
	} {
		moody.Arm(c.hook)
		spans, err = audit(uint64(2 + i))
		if err == nil {
			t.Fatalf("audit of a %s device passed", c.name)
		}
		for dev, ev := range spans {
			if ev.Attr != c.attrs[dev] || (ev.Err != "") != strings.Contains(c.failing, dev) {
				t.Errorf("%s: span of %s has attr %q, error %q; want attr %q", c.name, dev, ev.Attr, ev.Err, c.attrs[dev])
			}
		}
	}
}

// TestRoundLeavesNothingInFlight: when one device of a round refuses
// while a slower device behind it is still working, the round still waits
// for the slow one's reply before it returns, so once Reconfigure has
// returned no device applies anything the change sent. A request the
// round abandoned used to land later, after the repair's state fetch.
func TestRoundLeavesNothingInFlight(t *testing.T) {
	const slow = 150 * time.Millisecond
	shims := devicetest.Set{}
	banks := make(map[string]*TransceiverBank)
	devs := make(map[string]Device)
	var retune []TransceiverOp
	for _, name := range []string{"a", "b", "c", "d", "e"} {
		banks[name] = NewTransceiverBank(2, 4)
		devs[name] = shims.Wrap(name, banks[name])
		retune = append(retune, TransceiverOp{Device: name, Idx: 0, Wavelength: 1})
	}
	shims["c"].Arm(devicetest.Fail)
	shims["d"].Arm(func(op string, args map[string]any, next devicetest.Next) (map[string]any, error) {
		time.Sleep(slow)
		return next(op, args)
	})
	tb, err := StartTestbedWithOptions(devs, DialOptions{RPCTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	tuned := func() map[string]int {
		w := make(map[string]int)
		for name, b := range banks {
			ws, _ := b.Snapshot()
			w[name] = ws[0]
		}
		return w
	}

	start := time.Now()
	_, err = tb.Controller.Reconfigure(context.Background(), Change{Retunes: retune})
	var de *DeviceError
	if !errors.As(err, &de) || de.Device != "c" {
		t.Fatalf("reconfigure = %v, want a DeviceError for c", err)
	}
	if took := time.Since(start); took < slow {
		t.Errorf("reconfigure returned after %v, before d (%v) had answered", took, slow)
	}
	after := tuned()
	if want := map[string]int{"a": 1, "b": 1, "c": -1, "d": 1, "e": 1}; !maps.Equal(after, want) {
		t.Errorf("banks tuned to %v, want %v: d's batch applied and c's refused", after, want)
	}
	shims.Take()
	time.Sleep(2 * slow)
	if later := tuned(); !maps.Equal(later, after) {
		t.Errorf("banks changed after Reconfigure returned: %v, then %v", after, later)
	}
	if late := shims.Take(); len(late) > 0 {
		t.Errorf("devices handled %v after Reconfigure returned", late)
	}
}
