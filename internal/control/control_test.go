package control

import (
	"context"
	"maps"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"iris/internal/control/devicetest"
	"iris/internal/trace"
)

// fig13Testbed builds the paper's testbed layout: two DCs with a
// transceiver bank and an OSS each, one hut OSS with a loopback
// amplifier. Every device is served behind a disarmed devicetest.Device,
// kept in the returned Set by name.
func fig13Testbed(t *testing.T) (*Testbed, devicetest.Set) {
	t.Helper()
	shims := devicetest.Set{}
	devs := map[string]Device{
		"dc1-oss":  NewOSS(32, 0),
		"dc2-oss":  NewOSS(32, 0),
		"hut-oss":  NewOSS(64, 0),
		"hut-amp":  NewAmplifier(20, -3),
		"dc1-xcvr": NewTransceiverBank(4, 40),
		"dc2-xcvr": NewTransceiverBank(4, 40),
	}
	for name, dev := range devs {
		devs[name] = shims.Wrap(name, dev)
	}
	tb, err := StartTestbed(devs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tb.Close)
	return tb, shims
}

// call sends one request to a named device and returns its reply: a round
// of one, untraced. A failed reply is a *DeviceError naming the device.
func call(c *Controller, dev, op string, args map[string]any) (res map[string]any, err error) {
	err = c.round(context.Background(), nil, map[string]request{dev: {span: op, op: op, args: args}},
		func(_ string, r map[string]any, err error) error {
			res = r
			return err
		})
	return res, err
}

func TestPingAllDevices(t *testing.T) {
	tb, _ := fig13Testbed(t)
	kinds := map[string]string{"dc1-oss": "oss", "hut-amp": "amp", "dc1-xcvr": "transceivers"}
	for dev, kind := range kinds {
		res, err := call(tb.Controller, dev, "ping", nil)
		if err != nil {
			t.Fatalf("ping %s: %v", dev, err)
		}
		if res["kind"] != kind {
			t.Errorf("%s kind = %v, want %s", dev, res["kind"], kind)
		}
	}
	if got := len(tb.Controller.Devices()); got != 6 {
		t.Errorf("device count = %d, want 6", got)
	}
}

func TestUnknownDeviceAndOp(t *testing.T) {
	tb, _ := fig13Testbed(t)
	if _, err := call(tb.Controller, "nope", "ping", nil); err == nil {
		t.Error("expected error for unknown device")
	}
	if _, err := call(tb.Controller, "dc1-oss", "explode", nil); err == nil {
		t.Error("expected error for unknown op")
	}
	if _, err := call(tb.Controller, "dc1-oss", "switch-batch", map[string]any{"ins": []int{1}}); err == nil {
		t.Error("expected error for missing argument")
	}
	// An OSS and a bank take batches only, an amplifier its single-valued
	// enable and disable only; each request carries every argument.
	args := map[string]any{"in": 0, "out": 1, "ins": []int{0}, "outs": []int{1},
		"idx": 0, "wavelength": 1, "idxs": []int{0}, "wavelengths": []int{1}}
	for _, c := range []string{"dc1-oss connect", "dc1-oss disconnect", "dc1-xcvr tune", "dc1-xcvr enable",
		"dc1-xcvr disable", "dc1-xcvr switch-batch", "hut-amp enable-batch"} {
		dev, op, _ := strings.Cut(c, " ")
		if _, err := call(tb.Controller, dev, op, args); err == nil || !strings.Contains(err.Error(), "unknown op") {
			t.Errorf("%s accepted %s: err = %v, want unknown op", dev, op, err)
		}
	}
}

func TestOSSSemantics(t *testing.T) {
	tb, _ := fig13Testbed(t)
	c := tb.Controller
	must := func(op string, args map[string]any) {
		t.Helper()
		if _, err := call(c, "hut-oss", op, args); err != nil {
			t.Fatalf("%s: %v", op, err)
		}
	}
	connect := func(in, out int) map[string]any {
		return switchArgs(nil, []int{in}, []int{out})
	}
	must("switch-batch", connect(0, 10))
	if _, err := call(c, "hut-oss", "switch-batch", connect(0, 11)); err == nil {
		t.Error("double-connecting an input must fail")
	}
	if _, err := call(c, "hut-oss", "switch-batch", connect(1, 10)); err == nil {
		t.Error("double-feeding an output must fail")
	}
	if _, err := call(c, "hut-oss", "switch-batch", connect(99, 1)); err == nil {
		t.Error("out-of-range port must fail")
	}
	must("switch-batch", switchArgs([]int{0}, nil, nil))
	if _, err := call(c, "hut-oss", "switch-batch", switchArgs([]int{0}, nil, nil)); err == nil {
		t.Error("disconnecting an idle input must fail")
	}
	must("switch-batch", connect(1, 10)) // port freed
}

func TestTransceiverDrainDiscipline(t *testing.T) {
	tb, _ := fig13Testbed(t)
	c := tb.Controller
	first := map[string]any{"idxs": []int{0}}
	tune := func(w int) map[string]any {
		return map[string]any{"idxs": []int{0}, "wavelengths": []int{w}}
	}
	// Cannot enable untuned.
	if _, err := call(c, "dc1-xcvr", "enable-batch", first); err == nil {
		t.Error("enabling an untuned transceiver must fail")
	}
	if _, err := call(c, "dc1-xcvr", "tune-batch", tune(7)); err != nil {
		t.Fatal(err)
	}
	if _, err := call(c, "dc1-xcvr", "enable-batch", first); err != nil {
		t.Fatal(err)
	}
	// Cannot retune while live: the §5.2 drain-first rule is enforced by
	// the device itself.
	if _, err := call(c, "dc1-xcvr", "tune-batch", tune(9)); err == nil {
		t.Error("retuning a live transceiver must fail")
	}
	if _, err := call(c, "dc1-xcvr", "disable-batch", first); err != nil {
		t.Fatal(err)
	}
	if _, err := call(c, "dc1-xcvr", "tune-batch", tune(9)); err != nil {
		t.Errorf("retune after drain should succeed: %v", err)
	}
}

func TestReconfigureEndToEnd(t *testing.T) {
	tb, _ := fig13Testbed(t)
	c := tb.Controller

	// Initial circuit: DC1 transceiver 0 on wavelength 3, path through
	// hut port 0→1.
	setup := Change{
		Switches: []OSSOp{
			{Device: "dc1-oss", In: 0, Out: 8},
			{Device: "hut-oss", In: 0, Out: 1},
			{Device: "dc2-oss", In: 0, Out: 8},
		},
		Retunes: []TransceiverOp{
			{Device: "dc1-xcvr", Idx: 0, Wavelength: 3},
			{Device: "dc2-xcvr", Idx: 0, Wavelength: 3},
		},
		Undrain: []TransceiverOp{
			{Device: "dc1-xcvr", Idx: 0},
			{Device: "dc2-xcvr", Idx: 0},
		},
	}
	if _, err := c.Reconfigure(context.Background(), setup); err != nil {
		t.Fatal(err)
	}

	// Move the circuit to hut ports 0→2 (the B configuration) and
	// wavelength 5, with a proper drain.
	move := Change{
		Drain: []TransceiverOp{
			{Device: "dc1-xcvr", Idx: 0},
			{Device: "dc2-xcvr", Idx: 0},
		},
		Switches: []OSSOp{
			{Device: "hut-oss", In: 0, Disconnect: true},
			{Device: "hut-oss", In: 0, Out: 2},
		},
		Retunes: []TransceiverOp{
			{Device: "dc1-xcvr", Idx: 0, Wavelength: 5},
			{Device: "dc2-xcvr", Idx: 0, Wavelength: 5},
		},
		Undrain: []TransceiverOp{
			{Device: "dc1-xcvr", Idx: 0},
			{Device: "dc2-xcvr", Idx: 0},
		},
	}
	rep, err := c.Reconfigure(context.Background(), move)
	if err != nil {
		t.Fatal(err)
	}
	var phases []string
	for _, p := range rep.Phases {
		phases = append(phases, p.Name)
	}
	if want := []string{"drain", "switch", "amps", "retune", "undrain"}; !slices.Equal(phases, want) {
		t.Errorf("phases %v, want %v", phases, want)
	}

	// Audit intent vs. device state.
	err = c.Audit(Expected{
		Cross: map[string]map[int]int{
			"dc1-oss": {0: 8},
			"hut-oss": {0: 2},
			"dc2-oss": {0: 8},
		},
		Tuned:   map[string][]int{"dc1-xcvr": {5, -1, -1, -1}},
		Enabled: map[string][]bool{"dc1-xcvr": {true, false, false, false}},
	})
	if err != nil {
		t.Errorf("audit: %v", err)
	}

	// A wrong expectation must be detected.
	err = c.Audit(Expected{Cross: map[string]map[int]int{"hut-oss": {0: 1}}})
	if err == nil || !strings.Contains(err.Error(), "cross map") {
		t.Errorf("audit should flag a stale cross map, got %v", err)
	}
}

func TestReconfigureDrainOrdering(t *testing.T) {
	// The OSS must never switch while the affected transceivers are live:
	// every OSS op in a change lands after all drain ops, in the one order
	// the devices applied their batches.
	tb, shims := fig13Testbed(t)
	c := tb.Controller
	setup := Change{
		Switches: []OSSOp{{Device: "hut-oss", In: 4, Out: 5}},
		Retunes:  []TransceiverOp{{Device: "dc1-xcvr", Idx: 1, Wavelength: 1}},
		Undrain:  []TransceiverOp{{Device: "dc1-xcvr", Idx: 1}},
	}
	if _, err := c.Reconfigure(context.Background(), setup); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var applied []string // "device op", appended as each batch returns
	for name, dev := range shims {
		dev.Arm(func(op string, args map[string]any, next devicetest.Next) (map[string]any, error) {
			res, err := next(op, args)
			if err == nil {
				mu.Lock()
				applied = append(applied, name+" "+op)
				mu.Unlock()
			}
			return res, err
		})
	}
	move := Change{
		Drain:    []TransceiverOp{{Device: "dc1-xcvr", Idx: 1}},
		Switches: []OSSOp{{Device: "hut-oss", In: 4, Disconnect: true}, {Device: "hut-oss", In: 4, Out: 6}},
		Undrain:  []TransceiverOp{{Device: "dc1-xcvr", Idx: 1}},
	}
	if _, err := c.Reconfigure(context.Background(), move); err != nil {
		t.Fatal(err)
	}
	// The controller batches per device: the move lands as one
	// switch-batch tearing down port 4 and connecting it again.
	want := []string{"dc1-xcvr disable-batch", "hut-oss switch-batch", "dc1-xcvr enable-batch"}
	if !slices.Equal(applied, want) {
		t.Errorf("devices applied %v, want %v", applied, want)
	}
}

func TestReconfigureTiming(t *testing.T) {
	// With the measured 20 ms OSS switching delay, a reconfiguration
	// completes well within the paper's 70 ms fiber-switch budget even
	// across several OSS hops (they switch in parallel).
	tb, err := StartTestbed(map[string]Device{
		"oss-a": NewOSS(8, 20*time.Millisecond),
		"oss-b": NewOSS(8, 20*time.Millisecond),
		"oss-c": NewOSS(8, 20*time.Millisecond),
		"xcvr":  NewTransceiverBank(2, 40),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()

	ch := Change{
		Switches: []OSSOp{
			{Device: "oss-a", In: 0, Out: 1},
			{Device: "oss-b", In: 0, Out: 1},
			{Device: "oss-c", In: 0, Out: 1},
		},
		Retunes: []TransceiverOp{{Device: "xcvr", Idx: 0, Wavelength: 0}},
		Undrain: []TransceiverOp{{Device: "xcvr", Idx: 0}},
	}
	rep, err := tb.Controller.Reconfigure(context.Background(), ch)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total > 70*time.Millisecond {
		t.Errorf("reconfiguration took %v, want ≤ 70 ms", rep.Total)
	}
	var switchPhase PhaseTiming
	for _, p := range rep.Phases {
		if p.Name == "switch" {
			switchPhase = p
		}
	}
	if switchPhase.Duration < 20*time.Millisecond {
		t.Errorf("switch phase %v shorter than one OSS settling time", switchPhase.Duration)
	}
	if switchPhase.Duration > 60*time.Millisecond {
		t.Errorf("switch phase %v suggests serialized OSS switching", switchPhase.Duration)
	}
}

func TestReconfigureAbortsOnError(t *testing.T) {
	tb, shims := fig13Testbed(t)
	ch := Change{
		Switches: []OSSOp{{Device: "hut-oss", In: 99, Out: 1}}, // invalid port
		Retunes:  []TransceiverOp{{Device: "dc1-xcvr", Idx: 0, Wavelength: 1}},
	}
	_, err := tb.Controller.Reconfigure(context.Background(), ch)
	if err == nil {
		t.Fatal("expected error")
	}
	// The retune phase must not have run.
	tuned, _ := bankOf(t, shims["dc1-xcvr"].Inner())
	if tuned[0] != -1 {
		t.Error("retune ran despite switch-phase failure")
	}
}

func TestReconfigureRespectsContext(t *testing.T) {
	tb, _ := fig13Testbed(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := tb.Controller.Reconfigure(ctx, Change{
		Switches: []OSSOp{{Device: "hut-oss", In: 0, Out: 1}},
	})
	if err == nil {
		t.Fatal("expected context error")
	}
}

func TestConcurrentCalls(t *testing.T) {
	tb, shims := fig13Testbed(t)
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := call(tb.Controller, "hut-oss", "switch-batch",
				switchArgs(nil, []int{i}, []int{i + 16}))
			errs <- err
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	oss := shims["hut-oss"].Inner()
	if ins, _ := crossOf(t, oss); len(ins) != 16 {
		t.Errorf("cross connects = %d, want 16", len(ins))
	}
}

func TestAmplifierStateAndLog(t *testing.T) {
	tb, shims := fig13Testbed(t)
	if _, err := call(tb.Controller, "hut-amp", "enable", nil); err != nil {
		t.Fatal(err)
	}
	st, err := call(tb.Controller, "hut-amp", "state", nil)
	if err != nil {
		t.Fatal(err)
	}
	if st["enabled"] != true || st["gain_db"].(float64) != 20 || st["fixed_gain"] != true {
		t.Errorf("state = %v", st)
	}
	if !ampOn(t, shims["hut-amp"].Inner()) {
		t.Error("amplifier should be enabled")
	}
	if got, want := shims["hut-amp"].Take(), []devicetest.Call{{Op: "enable"}, {Op: "state"}}; !slices.Equal(got, want) {
		t.Errorf("amplifier handled %v, want %v", got, want)
	}
}

// TestAmpPhaseLastOperationDecides: a compiled change parks an amplifier
// with the last circuit it tears down and lights it again for the first it
// establishes. The phase used to send both concurrently, and the amplifier
// ended in whichever state arrived last; now it gets one RPC carrying the
// final state.
func TestAmpPhaseLastOperationDecides(t *testing.T) {
	tb, shims := fig13Testbed(t)
	amp := shims["hut-amp"].Inner()
	const rounds = 60
	for i := 0; i < rounds; i++ {
		want := i%2 == 0
		rep, err := tb.Controller.Reconfigure(context.Background(), Change{
			Amps: []AmpOp{
				{Device: "hut-amp", Enable: !want},
				{Device: "hut-amp", Enable: want},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if ampOn(t, amp) != want {
			t.Fatalf("reconfiguration %d left the amplifier enabled=%v, its last operation says %v", i, !want, want)
		}
		if got := rep.Phases[2]; got.Name != "amps" || got.Ops != 2 {
			t.Fatalf("phase report %+v, want amps with 2 operations", got)
		}
	}
	if got := len(shims["hut-amp"].Take()); got != rounds {
		t.Fatalf("amplifier received %d requests in %d reconfigurations, want one each", got, rounds)
	}
}

func TestOSSBatchSemantics(t *testing.T) {
	tb, shims := fig13Testbed(t)
	c := tb.Controller
	// Batch connect.
	if _, err := call(c, "hut-oss", "switch-batch",
		map[string]any{"disconnect": []any{}, "ins": []any{0, 1, 2}, "outs": []any{10, 11, 12}}); err != nil {
		t.Fatal(err)
	}
	oss := shims["hut-oss"].Inner()
	if ins, _ := crossOf(t, oss); len(ins) != 3 {
		t.Fatalf("cross connects = %d, want 3", len(ins))
	}
	// A batch with a conflict is rejected atomically: port 1 is busy, so
	// the new ports 3 and 4 must not be connected either.
	if _, err := call(c, "hut-oss", "switch-batch",
		map[string]any{"disconnect": []any{}, "ins": []any{3, 1, 4}, "outs": []any{13, 14, 15}}); err == nil {
		t.Fatal("conflicting batch should fail")
	}
	if ins, _ := crossOf(t, oss); len(ins) != 3 {
		t.Errorf("failed batch left %d connects, want unchanged 3", len(ins))
	}
	// Length mismatch.
	if _, err := call(c, "hut-oss", "switch-batch",
		map[string]any{"disconnect": []any{}, "ins": []any{5}, "outs": []any{16, 17}}); err == nil {
		t.Error("length mismatch should fail")
	}
	// Batch disconnect.
	if _, err := call(c, "hut-oss", "switch-batch",
		map[string]any{"disconnect": []any{0, 1, 2}, "ins": []any{}, "outs": []any{}}); err != nil {
		t.Fatal(err)
	}
	if ins, _ := crossOf(t, oss); len(ins) != 0 {
		t.Errorf("cross connects = %d after batch disconnect, want 0", len(ins))
	}
	// A disconnect naming an idle input, or one input twice, is rejected
	// atomically as well: no circuit goes.
	if _, err := call(c, "hut-oss", "switch-batch", switchArgs(nil, []int{0, 1}, []int{4, 5})); err != nil {
		t.Fatal(err)
	}
	for _, ins := range [][]any{{0, 2}, {1, 1}} {
		if _, err := call(c, "hut-oss", "switch-batch", map[string]any{"disconnect": ins, "ins": []any{}, "outs": []any{}}); err == nil {
			t.Errorf("disconnecting %v should fail", ins)
		}
		if got, outs := crossOf(t, oss); !slices.Equal(got, []int{0, 1}) || !slices.Equal(outs, []int{4, 5}) {
			t.Errorf("failed disconnect of %v left circuits %v->%v, want [0 1]->[4 5]", ins, got, outs)
		}
	}
}

func TestBatchedSwitchPhasePaysDelayOnce(t *testing.T) {
	tb, err := StartTestbed(map[string]Device{
		"oss": NewOSS(32, 20*time.Millisecond),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	// Eight circuits on one device: batching must keep the switch phase
	// near one settling window, not eight.
	var ops []OSSOp
	for i := 0; i < 8; i++ {
		ops = append(ops, OSSOp{Device: "oss", In: i, Out: 16 + i})
	}
	rep, err := tb.Controller.Reconfigure(context.Background(), Change{Switches: ops})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total > 60*time.Millisecond {
		t.Errorf("8-circuit switch took %v; batching should pay ~20 ms once", rep.Total)
	}
}

// TestSwitchPhaseIsOneRound: a change whose switch operations touch three
// switches, each with a disconnect and a connect, costs three RPCs — one
// switch-batch span per switch under the switch phase — and leaves the
// circuits it names, also the one that moves onto a port it vacates.
func TestSwitchPhaseIsOneRound(t *testing.T) {
	shims := devicetest.Set{}
	held := map[string]map[int]int{"oss-a": {0: 4}, "oss-b": {1: 5}, "oss-c": {0: 4}}
	devs := make(map[string]Device)
	for name, cross := range held {
		devs[name] = shims.Wrap(name, ossHolding(0, cross))
	}
	tb, err := StartTestbed(devs)
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	ch := Change{Switches: []OSSOp{
		{Device: "oss-a", In: 0, Disconnect: true}, {Device: "oss-a", In: 0, Out: 5}, // onto the input it vacates
		{Device: "oss-b", In: 1, Disconnect: true}, {Device: "oss-b", In: 2, Out: 5}, // onto the output it vacates
		{Device: "oss-c", In: 0, Disconnect: true}, {Device: "oss-c", In: 1, Out: 6},
	}}
	tracer := trace.New(64)
	root := tracer.Start(1, "reconfig")
	rep, err := tb.Controller.Reconfigure(trace.ContextWith(context.Background(), root), ch)
	root.Finish()
	if err != nil {
		t.Fatal(err)
	}
	batch := []devicetest.Call{{Op: "switch-batch", State: true}}
	want := map[string][]devicetest.Call{"oss-a": batch, "oss-b": batch, "oss-c": batch}
	if got := shims.Take(); !maps.EqualFunc(got, want, slices.Equal) {
		t.Errorf("switch RPCs %v, want %v", got, want)
	}
	if got := rep.Phases[1]; got.Name != "switch" || got.Ops != len(ch.Switches) {
		t.Errorf("phase report %+v, want switch with %d operations", got, len(ch.Switches))
	}
	for name, cross := range map[string]map[int]int{"oss-a": {0: 5}, "oss-b": {2: 5}, "oss-c": {1: 6}} {
		if got := circuits(t, shims[name].Inner()); !maps.Equal(got, cross) {
			t.Errorf("%s carries %v, want %v", name, got, cross)
		}
	}
	var phase uint64
	spans := make(map[string]string) // device → span name under the switch phase
	for _, ev := range tracer.Events(trace.Filter{TraceID: 1}) {
		if ev.Name == "switch" {
			phase = ev.SpanID
		}
	}
	for _, ev := range tracer.Events(trace.Filter{TraceID: 1}) {
		if ev.ParentID == phase && ev.Device != "" {
			spans[ev.Device] += ev.Name
		}
	}
	if want := map[string]string{"oss-a": "switch-batch", "oss-b": "switch-batch", "oss-c": "switch-batch"}; !maps.Equal(spans, want) {
		t.Errorf("spans under the switch phase %v, want %v", spans, want)
	}
}
