package control

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"iris/internal/control/devicetest"
)

// The tests read a device the way the controller does: through its state
// reply, decoded by the audit's own readers.

// stateOf is a device's reply to state.
func stateOf(t testing.TB, d Device) map[string]any {
	t.Helper()
	st, err := d.Handle("state", nil)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// crossOf returns a switch's circuits: input ports ascending, and each
// one's output.
func crossOf(t testing.TB, d Device) (ins, outs []int) {
	t.Helper()
	ins, outs, err := stateCross(stateOf(t, d))
	if err != nil {
		t.Fatal(err)
	}
	return ins, outs
}

// bankOf returns each transceiver's wavelength (-1: untuned) and whether
// it is live.
func bankOf(t testing.TB, d Device) (tuned []int, live []bool) {
	t.Helper()
	b, err := stateBank(stateOf(t, d))
	if err != nil {
		t.Fatal(err)
	}
	tuned, live = make([]int, b.n), make([]bool, b.n)
	for i := range b.n {
		var ok bool
		if tuned[i], live[i], ok = b.at(i); !ok {
			t.Fatalf("bank state %q %q: transceiver %d is not hex", b.tuned, b.enabled, i)
		}
	}
	return tuned, live
}

// ampOn reports whether an amplifier's state says it is enabled.
func ampOn(t testing.TB, d Device) bool {
	t.Helper()
	st := stateOf(t, d)
	on, ok := st["enabled"].(bool)
	if !ok {
		t.Fatalf("amplifier state %v has no boolean enabled", st)
	}
	return on
}

// cloneBank returns an independent bank in the same state.
func cloneBank(t testing.TB, b *TransceiverBank) *TransceiverBank {
	tuned, enabled := bankOf(t, b)
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

			oracle := cloneBank(t, bank)
			want := len(ws) == len(idxs)
			for i := 0; want && i < size; i++ {
				one := map[string]any{"idxs": idxs[i : i+1]}
				if op == "tune" {
					one["wavelengths"] = ws[i : i+1]
				}
				_, err := oracle.Handle(op+"-batch", one)
				want = err == nil
			}

			before := cloneBank(t, bank)
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
			gotT, gotE := bankOf(t, bank)
			wantT, wantE := bankOf(t, after)
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
	wantT, wantE := bankOf(t, bank)

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
		gotT, gotE := bankOf(t, bank)
		if !reflect.DeepEqual(gotT, wantT) || !reflect.DeepEqual(gotE, wantE) {
			t.Fatalf("%s: rejected batch changed the bank to %v %v", c.name, gotT, gotE)
		}
	}
}

// malformedStates are replies that are not a state of the device kind the
// expectation takes them for: wrongly typed fields (each of the first
// eleven either panicked the audit or passed it before the wire carried
// typed values), packed vectors or port lists that break their own
// format, and an amplifier's "enabled" that is not a boolean.
// FuzzStateDecode starts from the same list.
var malformedStates = func() []struct {
	name  string
	state map[string]any
	exp   Expected
} {
	cross := func(in, out any) map[string]any { return map[string]any{"in": in, "out": out, "ports": 8} }
	bank := func(tuned, enabled any) map[string]any {
		return map[string]any{"tuned": tuned, "enabled": enabled, "lambda": 40}
	}
	expCross := Expected{Cross: map[string]map[int]int{"dev": {1: 2}}}
	expDrained := Expected{Enabled: map[string][]bool{"dev": {false, false}}}
	expTuned := Expected{Tuned: map[string][]int{"dev": {0, 0}}}
	expFive := Expected{Enabled: map[string][]bool{"dev": make([]bool, 5)}}
	return []struct {
		name  string
		state map[string]any
		exp   Expected
	}{
		{"cross value of the wrong type", cross([]int{1}, []any{"two"}), expCross},
		{"cross value with a fraction", cross([]int{1}, []any{2.5}), expCross},
		{"port key with trailing junk", cross([]any{"1junk"}, []int{2}), expCross},
		{"port key spelled twice", cross([]int{1, 1}, []int{2, 2}), expCross},
		{"cross map missing", map[string]any{"ports": 8}, expCross},
		{"cross map an array", map[string]any{"cross": []int{1, 2}}, expCross},
		{"enabled with null elements", bank("0101", []any{nil, nil}), expDrained},
		{"enabled as numbers", bank("0101", []int{0, 0}), expDrained},
		{"enabled missing", map[string]any{"tuned": "0101", "lambda": 40}, expDrained},
		{"tuned with a string element", bank([]any{0, "0"}, "0"), expTuned},
		{"tuned as booleans", bank([]any{false, false}, "0"), expTuned},

		{"in ports descending", cross([]int{2, 1}, []int{3, 4}), expCross},
		{"more in ports than out ports", cross([]int{1, 3}, []int{2}), expCross},
		{"out ports missing", map[string]any{"in": []int{1}, "ports": 8}, expCross},
		{"tuned cut short", bank("010", "0"), expTuned},
		{"tuned of another bank size", bank("010101", "0"), expTuned},
		{"tuned with an upper-case digit", bank("0A01", "0"), expTuned},
		{"tuned with a non-hex digit", bank("0g01", "0"), expTuned},
		{"enabled cut short", bank("0101010101", "0"), expFive},
		{"enabled too long", bank("0101", "00"), expDrained},
		{"enabled with an upper-case digit", bank("0101010101", "C0"), expFive},
		{"enabled with a non-hex digit", bank("0101", "x"), expDrained},
		{"a bit set past the last transceiver", bank("0101", "2"), expDrained},
		{"lambda missing", map[string]any{"tuned": "0101", "enabled": "0"}, expDrained},
		{"lambda zero", map[string]any{"tuned": "0101", "enabled": "0", "lambda": 0}, expDrained},
		{"lambda a fraction", map[string]any{"tuned": "0101", "enabled": "0", "lambda": 40.5}, expDrained},
		{"amplifier enabled as a string", map[string]any{"enabled": "true", "gain_db": 20}, Expected{Amps: map[string]bool{"dev": true}}},
	}
}()

// TestAuditRejectsMalformedState: a device cannot crash the audit or talk
// its way through it: every malformed state is an error attributed to the
// device.
func TestAuditRejectsMalformedState(t *testing.T) {
	for _, c := range malformedStates {
		t.Run(c.name, func(t *testing.T) {
			// Any device will do: the audit reads a reply as the kind the
			// expectation names.
			dev := devicetest.Wrap(NewOSS(8, 0))
			dev.Arm(func(op string, args map[string]any, next devicetest.Next) (map[string]any, error) {
				if op == "state" {
					return c.state, nil
				}
				return next(op, args)
			})
			tb, err := StartTestbed(map[string]Device{"dev": dev})
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
	shims := devicetest.Set{}
	devs := map[string]Device{
		"oss":  NewOSS(4, 0),
		"xcvr": NewTransceiverBank(2, 4),
		"amp":  NewAmplifier(20, -3), // not expected, not fetched
	}
	for name, dev := range devs {
		devs[name] = shims.Wrap(name, dev)
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
	}); err != nil {
		t.Fatal(err)
	}
	state := []devicetest.Call{{Op: "state"}}
	want := map[string][]devicetest.Call{"oss": state, "xcvr": state}
	if got := shims.Take(); !maps.EqualFunc(got, want, slices.Equal) {
		t.Errorf("requests %v, want %v", got, want)
	}
}

// TestMismatchNamesTheElementNotTheVectors: an audit mismatch goes into
// the daemon's status, its log, a span attribute and a history record, so
// it names the first element that differs and how many do, in under 200
// bytes however large the device, and keeps the field words operators
// and tests match on.
func TestMismatchNamesTheElementNotTheVectors(t *testing.T) {
	bank, oss := NewTransceiverBank(400, 40), NewOSS(320, 0)
	tuned, live := make([]int, 400), make([]bool, 400)
	cross := make(map[int]int)
	var idxs, ws, ins, outs []int
	for i := range tuned {
		tuned[i], live[i] = i%40, true
		idxs, ws = append(idxs, i), append(ws, i%40)
		if i < 160 {
			cross[i], ins, outs = 319-i, append(ins, i), append(outs, 319-i)
		}
	}
	tb, err := StartTestbed(map[string]Device{"bank": bank, "oss": oss, "amp": NewAmplifier(20, -3)})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	for _, c := range []struct {
		dev, op string
		args    map[string]any
	}{
		{"bank", "tune-batch", map[string]any{"idxs": idxs, "wavelengths": ws}},
		{"bank", "enable-batch", map[string]any{"idxs": idxs}},
		{"oss", "switch-batch", switchArgs(nil, ins, outs)},
	} {
		if _, err := call(tb.Controller, c.dev, c.op, c.args); err != nil {
			t.Fatal(err)
		}
	}
	exp := func() Expected {
		return Expected{
			Tuned:   map[string][]int{"bank": slices.Clone(tuned)},
			Enabled: map[string][]bool{"bank": slices.Clone(live)},
			Cross:   map[string]map[int]int{"oss": cross},
			Amps:    map[string]bool{"amp": false},
		}
	}
	if err := tb.Controller.Audit(exp()); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		intent func(*Expected)
		want   string
	}{
		{"one drained transceiver", func(e *Expected) { e.Enabled["bank"][17] = false },
			"control: audit bank: enabled[17] true, want false"},
		{"three on other wavelengths", func(e *Expected) { e.Tuned["bank"][17], e.Tuned["bank"][18], e.Tuned["bank"][399] = 5, 5, 5 },
			"control: audit bank: tuned[17] 17, want 5 (first of 3 differences)"},
		{"every transceiver", func(e *Expected) { clear(e.Enabled["bank"]) },
			"control: audit bank: enabled[0] true, want false (first of 400 differences)"},
		{"a moved circuit", func(e *Expected) { e.Cross["oss"] = map[int]int{3: 9} },
			"control: audit oss: cross map: port 0 → 319, want none (first of 160 differences)"},
		{"a missing circuit", func(e *Expected) { e.Cross["oss"] = maps.Clone(cross); e.Cross["oss"][200] = 100 },
			"control: audit oss: cross map: port 200 → none, want 100"},
		{"a circuit to another port", func(e *Expected) { e.Cross["oss"] = maps.Clone(cross); e.Cross["oss"][3] = 9 },
			"control: audit oss: cross map: port 3 → 316, want 9"},
		{"a parked amplifier", func(e *Expected) { e.Amps["amp"] = true },
			"control: audit amp: amplifier enabled false, want true"},
	} {
		e := exp()
		c.intent(&e)
		err := tb.Controller.Audit(e)
		if err == nil || err.Error() != c.want || len(c.want) >= 200 {
			t.Errorf("%s: audit = %v\nwant %s", c.name, err, c.want)
		}
	}
}

// overTheWire is what the controller's transport makes of a device's
// result: encoded as a response line and decoded again.
func overTheWire(t testing.TB, result map[string]any) map[string]any {
	t.Helper()
	line, err := appendResponse(nil, &wireResponse{ID: 1, OK: true, Result: result})
	if err != nil {
		t.Fatal(err)
	}
	var resp wireResponse
	if err := decodeResponse(line, &resp); err != nil {
		t.Fatal(err)
	}
	return resp.Result
}

// TestPackedBankStateCarriesEveryWavelength: the packed encoding imposes
// no cap of its own. For bank sizes around the four-to-a-digit boundary
// and wavelength counts around every digit-width boundary, every
// wavelength the bank accepts (-1 ≤ w < lambda), live or drained, goes
// device → wire → reader unchanged: the intent it was set from matches,
// and intent one wavelength or one transceiver off does not.
func TestPackedBankStateCarriesEveryWavelength(t *testing.T) {
	for _, n := range []int{0, 1, 3, 4, 5, 400, 1000} {
		for _, lambda := range []int{1, 40, 96, 255, 256, 4096, 70000} {
			bank := NewTransceiverBank(n, lambda)
			all := make([]int, n)
			for i := range all {
				all[i] = i
			}
			must := func(op string, args map[string]any) {
				t.Helper()
				if _, err := bank.Handle(op, args); err != nil {
					t.Fatalf("n=%d lambda=%d: %s: %v", n, lambda, op, err)
				}
			}
			// Each round tunes the whole bank to the next n wavelengths,
			// wrapping from lambda-1 to -1, until all have been held.
			for first := -1; first < lambda; first += max(n, 1) {
				tuned, live, lit := make([]int, n), make([]bool, n), []int(nil)
				for i := range tuned {
					tuned[i] = (first+i+1)%(lambda+1) - 1
					if live[i] = tuned[i] >= 0 && i%3 != 1; live[i] {
						lit = append(lit, i)
					}
				}
				must("disable-batch", map[string]any{"idxs": all})
				must("tune-batch", map[string]any{"idxs": all, "wavelengths": tuned})
				must("enable-batch", map[string]any{"idxs": lit})
				st, err := bank.Handle("state", nil)
				if err != nil {
					t.Fatal(err)
				}
				st = overTheWire(t, st)

				var ch Change
				exp := Expected{Tuned: map[string][]int{"dev": tuned}, Enabled: map[string][]bool{"dev": live}}
				if diff, err := exp.repair(&ch, "dev", st); err != nil || diff != "" {
					t.Fatalf("n=%d lambda=%d from %d: the reader sees %q, %v in %v", n, lambda, first, diff, err, st)
				}
				if n == 0 {
					continue
				}
				last := n - 1
				tuned[last]++
				if diff, _ := exp.repair(&ch, "dev", st); !strings.HasPrefix(diff, fmt.Sprintf("tuned[%d] %d, want %d", last, tuned[last]-1, tuned[last])) {
					t.Fatalf("n=%d lambda=%d from %d: wavelength off by one reads %q", n, lambda, first, diff)
				}
				tuned[last]--
				live[last] = !live[last]
				if diff, _ := exp.repair(&ch, "dev", st); !strings.HasPrefix(diff, fmt.Sprintf("enabled[%d] %t, want %t", last, !live[last], live[last])) {
					t.Fatalf("n=%d lambda=%d from %d: a flipped transceiver reads %q", n, lambda, first, diff)
				}
			}
		}
	}
}

// FuzzStateDecode hands Expected.repair arbitrary bytes as the result of
// a bank's and a switch's "state": it never panics, and whatever it does
// not reject as a *DeviceError is a well-formed state — a bank's digits
// unpack and pack again to the same strings, a switch's input ports
// ascend with an output port each — whose repair is empty exactly when
// nothing is reported to differ.
func FuzzStateDecode(f *testing.F) {
	for _, c := range malformedStates {
		line, err := appendValue(nil, c.state)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(line)
	}
	f.Add([]byte(`{"tuned":"0100290000","enabled":"88","lambda":40}`))
	f.Add([]byte(`{"tuned":"","enabled":"","lambda":1}`))
	f.Add([]byte(`{"tuned":"1117000000","enabled":"c","lambda":70000}`))
	f.Add([]byte(`{"in":[1,4,9],"out":[2,0,7],"ports":16}`))
	f.Add([]byte(`{"in":[],"out":[],"ports":16}`))
	f.Add([]byte(`{"in":[1],"out":[2],"tuned":"01","enabled":"8","lambda":4}`))
	exps := []Expected{
		{Tuned: map[string][]int{"dev": {0, -1, 40, -1, -1}}, Enabled: map[string][]bool{"dev": {true, false, false, false, true}}},
		{Tuned: map[string][]int{"dev": {0}}},
		{Enabled: map[string][]bool{"dev": {}}},
		{Cross: map[string]map[int]int{"dev": {1: 2, 4: 0}}},
	}
	f.Fuzz(func(t *testing.T, result []byte) {
		var resp wireResponse
		if decodeResponse(append(append([]byte(`{"ok":true,"result":`), result...), '}'), &resp) != nil {
			return
		}
		st := resp.Result
		for _, exp := range exps {
			var ch Change
			diff, err := exp.repair(&ch, "dev", st)
			if err != nil {
				var de *DeviceError
				if !errors.As(err, &de) || de.Device != "dev" {
					t.Fatalf("repair of %q: %v is not a DeviceError for dev", result, err)
				}
				continue
			}
			empty := len(ch.Drain)+len(ch.Switches)+len(ch.Retunes)+len(ch.Undrain) == 0
			if (diff == "") != empty {
				t.Fatalf("repair of %q: diff %q with %+v", result, diff, ch)
			}
			if exp.Cross != nil {
				ins, _ := st["in"].([]int) // [] decodes to an empty []any
				outs, _ := st["out"].([]int)
				if len(ins) != len(outs) || !slices.IsSorted(ins) || len(slices.Compact(slices.Clone(ins))) != len(ins) {
					t.Fatalf("repair took %q for a switch state", result)
				}
				continue
			}
			bank, _ := stateBank(st)
			tuned, live := make([]int, bank.n), make([]bool, bank.n)
			for i := range tuned {
				tuned[i], live[i], _ = bank.at(i)
			}
			lambda, _ := asInt(st["lambda"])
			if pt, pe := packBank(tuned, live, lambda); pt != st["tuned"] || pe != st["enabled"] {
				t.Fatalf("repair took %q for a bank state, which packs again as %q %q", result, pt, pe)
			}
		}
	})
}

// switchArgs is a switch-batch's arguments.
func switchArgs(disconnect, ins, outs []int) map[string]any {
	return map[string]any{"disconnect": disconnect, "ins": ins, "outs": outs}
}

// ossHolding returns an eight-port switch carrying the given circuits.
func ossHolding(delay time.Duration, cross map[int]int) *OSS {
	o := NewOSS(8, delay)
	for in, out := range cross {
		o.cross[in], o.outInUse[out] = out, in
	}
	return o
}

// circuits returns a switch's circuits as a map.
func circuits(t testing.TB, o Device) map[int]int {
	t.Helper()
	ins, outs := crossOf(t, o)
	m := make(map[int]int, len(ins))
	for i, in := range ins {
		m[in] = outs[i]
	}
	return m
}

// TestSwitchBatchSemantics: a switch-batch tears down its disconnects,
// then makes its connects, each checked against the state after the
// teardown; a batch with any entry that fails changes nothing.
func TestSwitchBatchSemantics(t *testing.T) {
	held := map[int]int{0: 4, 1: 5}
	for _, c := range []struct {
		name string
		args map[string]any
		want map[int]int // nil: the batch fails
	}{
		{"move onto a vacated input", switchArgs([]int{0}, []int{0}, []int{6}), map[int]int{0: 6, 1: 5}},
		{"move onto a vacated output", switchArgs([]int{0}, []int{2}, []int{4}), map[int]int{1: 5, 2: 4}},
		{"swap two outputs", switchArgs([]int{0, 1}, []int{0, 1}, []int{5, 4}), map[int]int{0: 5, 1: 4}},
		{"connects only", switchArgs(nil, []int{2, 3}, []int{6, 7}), map[int]int{0: 4, 1: 5, 2: 6, 3: 7}},
		{"disconnects only", switchArgs([]int{1}, nil, nil), map[int]int{0: 4}},
		{"nothing", switchArgs(nil, nil, nil), held},
		{"idle disconnect", switchArgs([]int{2}, nil, nil), nil},
		{"idle disconnect behind a good one", switchArgs([]int{0, 2}, []int{3}, []int{4}), nil},
		{"repeated disconnect", switchArgs([]int{0, 0}, nil, nil), nil},
		{"out-of-range disconnect", switchArgs([]int{8}, nil, nil), nil},
		{"busy input", switchArgs(nil, []int{1}, []int{6}), nil},
		{"busy output", switchArgs(nil, []int{2}, []int{5}), nil},
		{"busy output behind a teardown", switchArgs([]int{0}, []int{0, 2}, []int{6, 5}), nil},
		{"repeated input", switchArgs(nil, []int{2, 2}, []int{6, 7}), nil},
		{"repeated output", switchArgs([]int{0}, []int{2, 3}, []int{4, 4}), nil},
		{"out-of-range input", switchArgs(nil, []int{8}, []int{6}), nil},
		{"out-of-range output", switchArgs([]int{0}, []int{0}, []int{-1}), nil},
		{"length mismatch", switchArgs(nil, []int{2}, []int{6, 7}), nil},
		{"no disconnect argument", map[string]any{"ins": []int{2}, "outs": []int{6}}, nil},
		{"no ins argument", map[string]any{"disconnect": []int{0}, "outs": []int{6}}, nil},
		{"no outs argument", map[string]any{"disconnect": []int{0}, "ins": []int{2}}, nil},
	} {
		t.Run(c.name, func(t *testing.T) {
			o := ossHolding(0, held)
			_, err := o.Handle("switch-batch", c.args)
			if (err == nil) != (c.want != nil) {
				t.Fatalf("switch-batch %v: err = %v, want failure %v", c.args, err, c.want == nil)
			}
			want := c.want
			if want == nil {
				want = held
			}
			if got := circuits(t, o); !maps.Equal(got, want) {
				t.Errorf("circuits %v, want %v", got, want)
			}
		})
	}
}

// TestSwitchBatchSettlesOnlyForConnects: a batch settles once when it
// connects something, and not at all when it only tears down.
func TestSwitchBatchSettlesOnlyForConnects(t *testing.T) {
	const delay = 20 * time.Millisecond
	o := ossHolding(delay, map[int]int{0: 4, 1: 5, 2: 6})
	start := time.Now()
	if _, err := o.Handle("switch-batch", switchArgs([]int{2}, nil, nil)); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took >= delay {
		t.Errorf("a disconnect-only batch took %v, want no settling", took)
	}
	start = time.Now()
	if _, err := o.Handle("switch-batch", switchArgs([]int{0, 1}, []int{0, 1, 3}, []int{5, 4, 7})); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took < delay || took >= 2*delay {
		t.Errorf("a batch of two disconnects and three connects took %v, want one settling of %v", took, delay)
	}
}

// FuzzOSSSwitchBatch: on a switch holding a few circuits, any switch-batch
// either leaves what a model of teardown-then-connect computes, or fails
// and leaves the circuits as they were. A
// batch sent with "state": true that succeeds answers with the model's
// circuits in the shape of a "state" reply, as the wire carries it; one
// that fails answers with no result.
func FuzzOSSSwitchBatch(f *testing.F) {
	f.Add([]byte{0}, []byte{0}, []byte{6}, false)
	f.Add([]byte{0, 1}, []byte{0, 1}, []byte{5, 4}, true)
	f.Add([]byte{3}, []byte{}, []byte{}, true)
	f.Add([]byte{}, []byte{3, 3}, []byte{7, 8}, false)
	f.Add([]byte{2, 2}, []byte{9}, []byte{0}, true)
	f.Add([]byte{}, []byte{}, []byte{}, true)
	held := map[int]int{0: 4, 1: 5, 2: 3}
	ports := func(bs []byte) []int { // -1 to 8: both ends of [0,8) and past them
		out := make([]int, len(bs))
		for i, b := range bs {
			out[i] = int(b)%10 - 1
		}
		return out
	}
	f.Fuzz(func(t *testing.T, db, ib, ob []byte, withState bool) {
		disconnect, ins, outs := ports(db), ports(ib), ports(ob)
		want := maps.Clone(held)
		ok := len(ins) == len(outs)
		for _, in := range disconnect {
			if _, held := want[in]; !held {
				ok = false
			}
			delete(want, in)
		}
		fed := make(map[int]bool)
		for _, out := range want {
			fed[out] = true
		}
		for i := 0; ok && i < len(ins); i++ {
			in, out := ins[i], outs[i]
			_, busy := want[in]
			if ok = in >= 0 && in < 8 && out >= 0 && out < 8 && !busy && !fed[out]; ok {
				want[in], fed[out] = out, true
			}
		}

		o := ossHolding(0, held)
		args := switchArgs(disconnect, ins, outs)
		if withState {
			args["state"] = true
		}
		res, err := o.Handle("switch-batch", args)
		if (err == nil) != ok {
			t.Fatalf("switch-batch %v %v->%v: err = %v, the model accepts it: %v", disconnect, ins, outs, err, ok)
		}
		if !ok {
			want = held
		}
		var wantRes map[string]any
		if ok && withState {
			wantIns := sortedKeys(want)
			wantOuts := make([]int, len(wantIns))
			for i, in := range wantIns {
				wantOuts[i] = want[in]
			}
			wantRes = map[string]any{"in": wantIns, "out": wantOuts, "ports": 8}
		}
		if !reflect.DeepEqual(overTheWire(t, res), overTheWire(t, wantRes)) {
			t.Fatalf("switch-batch %v %v->%v with state %t answered %v, want %v", disconnect, ins, outs, withState, res, wantRes)
		}
		if got := circuits(t, o); !maps.Equal(got, want) {
			t.Fatalf("switch-batch %v %v->%v left %v, want %v", disconnect, ins, outs, got, want)
		}
	})
}

// TestWriteReplyIsTheStateOp: every write of every device kind, given
// "state": true, answers with the state a "state" call made right after it
// returns, and without the flag answers with no result.
func TestWriteReplyIsTheStateOp(t *testing.T) {
	withState := func(args map[string]any) map[string]any {
		args = maps.Clone(args)
		if args == nil {
			args = make(map[string]any)
		}
		args["state"] = true
		return args
	}
	oss := func() Device { return ossHolding(0, map[int]int{0: 4, 1: 5}) }
	amp := func() Device { return NewAmplifier(20, -3) }
	bank := func() Device { // transceivers 0 and 5 tuned, 5 live
		b := NewTransceiverBank(6, 40)
		for _, w := range []struct {
			op   string
			args map[string]any
		}{
			{"tune-batch", map[string]any{"idxs": []int{0, 5}, "wavelengths": []int{3, 39}}},
			{"enable-batch", map[string]any{"idxs": []int{5}}},
		} {
			if _, err := b.Handle(w.op, w.args); err != nil {
				t.Fatal(err)
			}
		}
		return b
	}
	for _, c := range []struct {
		dev  func() Device
		op   string
		args map[string]any
	}{
		{oss, "switch-batch", switchArgs([]int{0}, []int{0, 2}, []int{6, 4})},
		{oss, "switch-batch", switchArgs([]int{0, 1}, nil, nil)},
		{amp, "enable", nil},
		{amp, "disable", nil},
		{bank, "tune-batch", map[string]any{"idxs": []int{0, 2}, "wavelengths": []int{7, 0}}},
		{bank, "enable-batch", map[string]any{"idxs": []int{0}}},
		{bank, "disable-batch", map[string]any{"idxs": []int{5}}},
	} {
		dev := c.dev()
		t.Run(dev.Kind()+"/"+c.op, func(t *testing.T) {
			got, err := dev.Handle(c.op, withState(c.args))
			if err != nil {
				t.Fatal(err)
			}
			want, err := dev.Handle("state", nil)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("reply %v, state %v", got, want)
			}
			if !reflect.DeepEqual(overTheWire(t, got), overTheWire(t, want)) {
				t.Errorf("over the wire: reply %v, state %v", overTheWire(t, got), overTheWire(t, want))
			}
			if res, err := c.dev().Handle(c.op, c.args); err != nil || res != nil {
				t.Errorf("%s without the flag = %v, %v; want no result", c.op, res, err)
			}
		})
	}
}

// TestReconfigureAsksEachDeviceOnceForState: only the batch of a device's
// last phase carries "state": true, and its reply is the device's entry in
// Report.States — the state a fetch after the change returns.
func TestReconfigureAsksEachDeviceOnceForState(t *testing.T) {
	shims := devicetest.Set{}
	devs := map[string]Device{
		"oss":  ossHolding(0, map[int]int{0: 4}),
		"xcvr": NewTransceiverBank(4, 40),
		"amp":  NewAmplifier(20, -3),
	}
	for name, dev := range devs {
		devs[name] = shims.Wrap(name, dev)
	}
	tb, err := StartTestbed(devs)
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	if _, err := call(tb.Controller, "xcvr", "tune-batch", map[string]any{"idxs": []int{1}, "wavelengths": []int{2}}); err != nil {
		t.Fatal(err)
	}
	if _, err := call(tb.Controller, "xcvr", "enable-batch", map[string]any{"idxs": []int{1}}); err != nil {
		t.Fatal(err)
	}
	shims.Take()
	ch := Change{
		Drain:    []TransceiverOp{{Device: "xcvr", Idx: 1}},
		Switches: []OSSOp{{Device: "oss", In: 0, Disconnect: true}, {Device: "oss", In: 0, Out: 5}},
		Amps:     []AmpOp{{Device: "amp", Enable: true}},
		Retunes:  []TransceiverOp{{Device: "xcvr", Idx: 1, Wavelength: 7}, {Device: "xcvr", Idx: 3, Wavelength: 0}},
		Undrain:  []TransceiverOp{{Device: "xcvr", Idx: 3}},
	}
	rep, err := tb.Controller.Reconfigure(context.Background(), ch)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]devicetest.Call{ // one batch per phase, the last asking for the state
		"oss":  {{Op: "switch-batch", State: true}},
		"xcvr": {{Op: "disable-batch"}, {Op: "tune-batch"}, {Op: "enable-batch", State: true}},
		"amp":  {{Op: "enable", State: true}},
	}
	if got := shims.Take(); !maps.EqualFunc(got, want, slices.Equal) {
		t.Errorf("requests %v, want %v", got, want)
	}
	if got := sortedKeys(rep.States); !slices.Equal(got, ch.Devices()) {
		t.Errorf("report has states of %v, want %v", got, ch.Devices())
	}
	for _, dev := range ch.Devices() {
		st, err := call(tb.Controller, dev, "state", nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rep.States[dev], st) {
			t.Errorf("%s: reply state %v, fetched %v", dev, rep.States[dev], st)
		}
	}
}
