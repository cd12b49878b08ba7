package control

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// cloneBank returns an independent bank in the same state.
func cloneBank(b *TransceiverBank) *TransceiverBank {
	tuned, enabled := b.Snapshot()
	return &TransceiverBank{lambda: b.lambda, tuned: tuned, enabled: enabled}
}

// TestTransceiverBatchMatchesSingleOps is the batch forms' contract,
// checked against batches of one over seeded random sequences: a batch is
// accepted exactly when the same entries applied one at a time to a copy
// are all accepted; an accepted batch leaves the state those single
// operations leave; a rejected one leaves the bank untouched.
func TestTransceiverBatchMatchesSingleOps(t *testing.T) {
	const n, lambda = 8, 4
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		bank := NewTransceiverBank(n, lambda)
		accepted, rejected := 0, 0
		for step := 0; step < 400; step++ {
			op := []string{"tune", "enable", "disable"}[rng.Intn(3)]
			size := rng.Intn(5)
			idxs := make([]int, size)
			ws := make([]int, size)
			for i := range idxs {
				// Mostly valid, now and then one past either end.
				idxs[i] = rng.Intn(n+2) - 1
				if rng.Intn(4) > 0 {
					idxs[i] = rng.Intn(n)
				}
				ws[i] = rng.Intn(lambda+3) - 2
				if rng.Intn(4) > 0 {
					ws[i] = rng.Intn(lambda)
				}
			}
			args := map[string]any{"idxs": idxs}
			if op == "tune" {
				if size > 0 && rng.Intn(10) == 0 {
					ws = ws[:size-1] // length mismatch: rejected whatever the entries
				}
				args["wavelengths"] = ws
			}

			oracle := cloneBank(bank)
			want := len(ws) == len(idxs)
			for i := 0; want && i < size; i++ {
				one := map[string]any{"idxs": idxs[i : i+1]}
				if op == "tune" {
					one["wavelengths"] = ws[i : i+1]
				}
				_, err := oracle.Handle(op+"-batch", one)
				want = err == nil
			}

			before := cloneBank(bank)
			_, err := bank.Handle(op+"-batch", args)
			desc := fmt.Sprintf("seed %d step %d: %s-batch %v %v", seed, step, op, idxs, ws)
			if (err == nil) != want {
				t.Fatalf("%s: err = %v, single ops accept = %v", desc, err, want)
			}
			after := oracle
			if err != nil {
				after = before
				rejected++
			} else {
				accepted++
			}
			gotT, gotE := bank.Snapshot()
			wantT, wantE := after.Snapshot()
			if !reflect.DeepEqual(gotT, wantT) || !reflect.DeepEqual(gotE, wantE) {
				t.Fatalf("%s (err %v): bank %v %v, want %v %v", desc, err, gotT, gotE, wantT, wantE)
			}
		}
		if accepted < 50 || rejected < 50 {
			t.Errorf("seed %d: %d accepted, %d rejected batches: the mix exercises one side only", seed, accepted, rejected)
		}
	}
}

// TestTransceiverBatchRejectsAtomically names the ways a batch fails
// and checks each changes nothing, valid leading entries included.
func TestTransceiverBatchRejectsAtomically(t *testing.T) {
	bank := NewTransceiverBank(4, 8)
	must := func(op string, args map[string]any) {
		t.Helper()
		if _, err := bank.Handle(op, args); err != nil {
			t.Fatal(err)
		}
	}
	must("tune-batch", map[string]any{"idxs": []int{0, 1}, "wavelengths": []int{3, 4}})
	must("enable-batch", map[string]any{"idxs": []int{0}})
	wantT, wantE := bank.Snapshot()

	for _, c := range []struct {
		name, op string
		args     map[string]any
		errPart  string
	}{
		{"index out of range", "disable-batch", map[string]any{"idxs": []int{0, 4}}, "out of range"},
		{"retune of an enabled transceiver", "tune-batch", map[string]any{"idxs": []int{1, 0}, "wavelengths": []int{5, 5}}, "must be disabled"},
		{"enable of an untuned transceiver", "enable-batch", map[string]any{"idxs": []int{1, 2}}, "untuned"},
		{"wavelength out of range", "tune-batch", map[string]any{"idxs": []int{1, 2}, "wavelengths": []int{5, 8}}, "out of range"},
		{"length mismatch", "tune-batch", map[string]any{"idxs": []int{1, 2}, "wavelengths": []int{5}}, "length mismatch"},
	} {
		_, err := bank.Handle(c.op, c.args)
		if err == nil || !strings.Contains(err.Error(), c.errPart) {
			t.Errorf("%s: err = %v, want one mentioning %q", c.name, err, c.errPart)
		}
		gotT, gotE := bank.Snapshot()
		if !reflect.DeepEqual(gotT, wantT) || !reflect.DeepEqual(gotE, wantE) {
			t.Fatalf("%s: rejected batch changed the bank to %v %v", c.name, gotT, gotE)
		}
	}
}

// TestDeviceLogIsARing: a device that runs forever remembers its last
// logCap operations, oldest first, and nothing more.
func TestDeviceLogIsARing(t *testing.T) {
	amp := NewAmplifier(20, -3)
	bank := NewTransceiverBank(2, 4)
	for i := 0; i < 3*logCap+5; i++ {
		if _, err := amp.Handle("enable", nil); err != nil {
			t.Fatal(err)
		}
		if _, err := bank.Handle("tune-batch", map[string]any{"idxs": []int{i % 2}, "wavelengths": []int{i % 4}}); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(amp.Log()); got != logCap {
		t.Errorf("amplifier retains %d entries, want %d", got, logCap)
	}
	log := bank.Log()
	if len(log) != logCap {
		t.Fatalf("bank retains %d entries, want %d", len(log), logCap)
	}
	last := 3*logCap + 4
	for i, e := range log {
		op := last - (logCap - 1) + i
		if want := fmt.Sprintf("[%d]->[%d]", op%2, op%4); e.Op != "tune-batch" || e.Note != want {
			t.Fatalf("entry %d = %s %q, want tune-batch %q", i, e.Op, e.Note, want)
		}
		if i > 0 && e.Time.Before(log[i-1].Time) {
			t.Fatalf("entry %d is older than entry %d", i, i-1)
		}
	}
}

// hostileDevice answers "state" with whatever it was built with.
type hostileDevice struct {
	kind  string
	state map[string]any
}

func (d hostileDevice) Kind() string { return d.kind }

func (d hostileDevice) Handle(op string, _ map[string]any) (map[string]any, error) {
	if op == "state" {
		return d.state, nil
	}
	return nil, fmt.Errorf("hostile: unknown op %q", op)
}

// TestAuditRejectsMalformedState: a device cannot crash the audit or talk
// its way through it. Each reply here either panicked the audit or passed
// it before the wire carried typed values; each must now be an error
// attributed to the device.
func TestAuditRejectsMalformedState(t *testing.T) {
	cross := func(m map[string]any) hostileDevice {
		return hostileDevice{"oss", map[string]any{"cross": m, "ports": 8}}
	}
	bank := func(tuned, enabled any) hostileDevice {
		return hostileDevice{"transceivers", map[string]any{"tuned": tuned, "enabled": enabled, "lambda": 4}}
	}
	expCross := Expected{Cross: map[string]map[int]int{"dev": {1: 2}}}
	expDrained := Expected{Enabled: map[string][]bool{"dev": {false, false}}}
	expTuned := Expected{Tuned: map[string][]int{"dev": {0, 0}}}
	expFilled := Expected{Filled: map[string][]int{"dev": {}}}
	for _, c := range []struct {
		name string
		dev  hostileDevice
		exp  Expected
	}{
		{"cross value of the wrong type", cross(map[string]any{"1": "two"}), expCross},
		{"cross value with a fraction", cross(map[string]any{"1": 2.5}), expCross},
		{"port key with trailing junk", cross(map[string]any{"1junk": 2}), expCross},
		{"port key spelled twice", cross(map[string]any{"1": 2, "01": 2}), expCross},
		{"cross map missing", hostileDevice{"oss", map[string]any{"ports": 8}}, expCross},
		{"cross map an array", hostileDevice{"oss", map[string]any{"cross": []int{1, 2}}}, expCross},
		{"enabled with null elements", bank([]int{0, 0}, []any{nil, nil}), expDrained},
		{"enabled as numbers", bank([]int{0, 0}, []int{0, 0}), expDrained},
		{"enabled missing", hostileDevice{"transceivers", map[string]any{"lambda": 4}}, expDrained},
		{"tuned with a string element", bank([]any{0, "0"}, []bool{false, false}), expTuned},
		{"tuned as booleans", bank([]bool{false, false}, []bool{false, false}), expTuned},
		{"filled an object", hostileDevice{"emulator", map[string]any{"filled": map[string]any{}}}, expFilled},
	} {
		t.Run(c.name, func(t *testing.T) {
			tb, err := StartTestbed(map[string]Device{"dev": c.dev})
			if err != nil {
				t.Fatal(err)
			}
			defer tb.Close()
			err = tb.Controller.Audit(c.exp)
			var de *DeviceError
			if !errors.As(err, &de) || de.Device != "dev" {
				t.Fatalf("audit err = %v, want a DeviceError for dev", err)
			}
		})
	}
}

// TestAuditFetchesEachDeviceOnce: one state RPC per expected device, also
// for a bank whose tuning and live state are both expected.
func TestAuditFetchesEachDeviceOnce(t *testing.T) {
	calls := &callCounts{n: make(map[string]int)}
	devs := map[string]Device{
		"oss":  NewOSS(4, 0),
		"xcvr": NewTransceiverBank(2, 4),
		"em":   NewChannelEmulator(4),
		"amp":  NewAmplifier(20, -3), // not expected, not fetched
	}
	for name, dev := range devs {
		devs[name] = countingDevice{Device: dev, name: name, calls: calls}
	}
	tb, err := StartTestbed(devs)
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	if err := tb.Controller.AuditCtx(context.Background(), Expected{
		Cross:   map[string]map[int]int{"oss": {}},
		Tuned:   map[string][]int{"xcvr": {-1, -1}},
		Enabled: map[string][]bool{"xcvr": {false, false}},
		Filled:  map[string][]int{"em": nil},
	}); err != nil {
		t.Fatal(err)
	}
	calls.mu.Lock()
	defer calls.mu.Unlock()
	if want := map[string]int{"oss": 1, "xcvr": 1, "em": 1}; !reflect.DeepEqual(calls.n, want) {
		t.Errorf("state fetches = %v, want %v", calls.n, want)
	}
}

type callCounts struct {
	mu sync.Mutex
	n  map[string]int
}

// countingDevice counts Handle calls per device.
type countingDevice struct {
	Device
	name  string
	calls *callCounts
}

func (d countingDevice) Handle(op string, args map[string]any) (map[string]any, error) {
	d.calls.mu.Lock()
	d.calls.n[d.name]++
	d.calls.mu.Unlock()
	return d.Device.Handle(op, args)
}

// TestAuditSeesAFlippedEmulatorChannel: the ASE fill is audited channel by
// channel like everything else.
func TestAuditSeesAFlippedEmulatorChannel(t *testing.T) {
	tb := fig13Testbed(t)
	exp := Expected{Filled: map[string][]int{"dc1-emulator": {0, 1, 2}, "dc2-emulator": {}}}
	if _, err := tb.Controller.Reconfigure(context.Background(), Change{
		Fills: []FillOp{{Device: "dc1-emulator", Channels: []int{0, 1, 2}}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := tb.Controller.Audit(exp); err != nil {
		t.Fatal(err)
	}
	// Behind the controller's back, straight on the device.
	if _, err := tb.Devices["dc1-emulator"].Handle("fill", map[string]any{"channels": []int{0, 1, 3}}); err != nil {
		t.Fatal(err)
	}
	err := tb.Controller.Audit(exp)
	if err == nil || !strings.Contains(err.Error(), "dc1-emulator") || !strings.Contains(err.Error(), "filled") {
		t.Errorf("audit = %v, want a filled mismatch naming dc1-emulator", err)
	}
}
