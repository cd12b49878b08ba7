package fabric

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"iris/internal/control"
	"iris/internal/control/devicetest"
	"iris/internal/hose"
	"iris/internal/traffic"
)

// intentRig brings up the benchmark's region (seed 1, 20 DCs: the smallest
// generated region whose plan has an amplifier) and commits an allocation
// that lights the amplifier and leaves most switches and transceivers
// idle, so intent covers live and idle devices of every kind. shims, when
// not nil, gets every device wrapped.
func intentRig(t *testing.T, shims devicetest.Set) (*Rig, control.Expected) {
	t.Helper()
	rig := benchRig(t, shims)
	var pairs []hose.Pair
	for p, info := range rig.Dep.Plan.Paths {
		if len(info.AmpNodes) > 0 {
			pairs = append(pairs, p)
		}
	}
	hose.SortPairs(pairs)
	if len(pairs) == 0 {
		t.Fatal("no planned path crosses an amplifier")
	}
	dcs := rig.Dep.Region.Map.DCs()
	pairs = append(pairs[:1], hose.Pair{A: dcs[0], B: dcs[1]}.Canonical(), hose.Pair{A: dcs[2], B: dcs[3]}.Canonical())
	tm := traffic.NewMatrix(dcs)
	for _, p := range pairs {
		tm.Set(p, 60) // one full fiber and a 20-wavelength residual
	}
	alloc, err := rig.Dep.Allocate(tm)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := rig.Fab.CompileTarget(alloc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rig.Testbed.Controller.Reconfigure(context.Background(), ch); err != nil {
		t.Fatal(err)
	}
	exp := rig.Fab.Expected()
	if err := rig.Testbed.Controller.Audit(exp); err != nil {
		t.Fatalf("audit after clean reconfigure: %v", err)
	}
	return rig, exp
}

// poke sends one operation straight to a device, behind the controller's
// back.
func poke(t *testing.T, rig *Rig, dev, op string, args map[string]any) {
	t.Helper()
	if _, err := rig.Testbed.Devices[dev].Handle(op, args); err != nil {
		t.Fatalf("%s %s %v: %v", dev, op, args, err)
	}
}

func idxs(i int) map[string]any { return map[string]any{"idxs": []int{i}} }

func tune(i, w int) map[string]any {
	return map[string]any{"idxs": []int{i}, "wavelengths": []int{w}}
}

// switchArgs is a switch-batch's arguments.
func switchArgs(disconnect, ins, outs []int) map[string]any {
	return map[string]any{"disconnect": disconnect, "ins": ins, "outs": outs}
}

func opCount(ch control.Change) int {
	return len(ch.Drain) + len(ch.Switches) + len(ch.Amps) + len(ch.Retunes) + len(ch.Undrain)
}

// TestAuditAndRepairAgreeOnNamedDrifts: the three divergences the audit
// used to pass and the repair used to fix — each must now fail the audit
// naming the device and the field, and be cleared by the repair.
func TestAuditAndRepairAgreeOnNamedDrifts(t *testing.T) {
	rig, exp := intentRig(t, nil)
	ctl := rig.Testbed.Controller
	ctx := context.Background()

	var amp string
	for dev, on := range exp.Amps {
		if on {
			amp = dev
		}
	}
	var bank string
	live := -1
	for dev, enabled := range exp.Enabled {
		for i, on := range enabled {
			if on && (dev > bank || (dev == bank && i > live)) {
				bank, live = dev, i
			}
		}
	}
	var idle string
	for dev, cross := range exp.Cross {
		if len(cross) == 0 && dev > idle {
			idle = dev
		}
	}
	if amp == "" || bank == "" || idle == "" {
		t.Fatalf("region lacks a lit amplifier (%q), a live transceiver (%q) or an idle switch (%q)", amp, bank, idle)
	}

	for _, c := range []struct {
		name, dev, field string
		drift            func()
		wantOps          int
	}{
		{"parked amplifier", amp, "amplifier", func() {
			poke(t, rig, amp, "disable", nil)
		}, 1},
		{"live transceiver on the wrong wavelength", bank, "tuned", func() {
			poke(t, rig, bank, "disable-batch", idxs(live))
			poke(t, rig, bank, "tune-batch", tune(live, 39))
			poke(t, rig, bank, "enable-batch", idxs(live))
		}, 3},
		{"stray cross-connect on an idle switch", idle, "cross map", func() {
			poke(t, rig, idle, "switch-batch", switchArgs(nil, []int{0}, []int{1}))
		}, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			c.drift()
			err := ctl.Audit(exp)
			if err == nil || !strings.Contains(err.Error(), c.dev) || !strings.Contains(err.Error(), c.field) {
				t.Fatalf("audit = %v, want a %s mismatch naming %s", err, c.field, c.dev)
			}
			if len(err.Error()) >= 200 {
				t.Errorf("the mismatch takes %d bytes to say: %v", len(err.Error()), err)
			}
			var de *control.DeviceError
			if errors.As(err, &de) {
				t.Errorf("a well-formed mismatch is a *DeviceError: %v", err)
			}
			ch, err := ctl.Repair(ctx, exp)
			if err != nil {
				t.Fatal(err)
			}
			if opCount(ch) != c.wantOps {
				t.Errorf("repair has %d operations, want %d: %+v", opCount(ch), c.wantOps, ch)
			}
			if _, err := ctl.Reconfigure(ctx, ch); err != nil {
				t.Fatalf("repair reconfigure: %v", err)
			}
			if err := ctl.Audit(exp); err != nil {
				t.Fatalf("audit after repair: %v", err)
			}
		})
	}
}

// drifter changes devices behind the controller's back, one random drift
// at a time, reading what a device holds from the device itself.
type drifter struct {
	t   *testing.T
	rng *rand.Rand
	rig *Rig
	exp control.Expected
	// reconcilable restricts the drifts to what the pre-PR-17
	// Fabric.Reconcile repaired: it never looked at the wavelength of a
	// transceiver intent keeps drained.
	reconcilable bool

	switches, banks, amps []string
}

func newDrifter(t *testing.T, seed int64, rig *Rig, exp control.Expected, reconcilable bool) *drifter {
	d := &drifter{t: t, rng: rand.New(rand.NewSource(seed)), rig: rig, exp: exp, reconcilable: reconcilable}
	for dev := range exp.Cross {
		d.switches = append(d.switches, dev)
	}
	for dev := range exp.Enabled {
		d.banks = append(d.banks, dev)
	}
	for dev := range exp.Amps {
		d.amps = append(d.amps, dev)
	}
	sort.Strings(d.switches)
	sort.Strings(d.banks)
	sort.Strings(d.amps)
	return d
}

func pick[T any](rng *rand.Rand, xs []T) T { return xs[rng.Intn(len(xs))] }

// cross returns a switch's circuits and its idle input and output ports.
func (d *drifter) cross(dev string) (cross map[int]int, ins, freeIn, freeOut []int) {
	oss := d.rig.Testbed.Devices[dev].(*control.OSS)
	cross = make(map[int]int)
	fed := make(map[int]bool)
	ins, outs := oss.Cross()
	for i, in := range ins {
		cross[in], fed[outs[i]] = outs[i], true
	}
	st, err := oss.Handle("state", nil)
	if err != nil {
		d.t.Fatal(err)
	}
	for p := 0; p < st["ports"].(int); p++ {
		if _, busy := cross[p]; !busy {
			freeIn = append(freeIn, p)
		}
		if !fed[p] {
			freeOut = append(freeOut, p)
		}
	}
	return cross, ins, freeIn, freeOut
}

// The drift kinds. The last is the one the pre-PR-17 Reconcile did not
// repair, so a reconcilable drifter draws from the kinds before it.
const (
	crossRemoved = iota
	crossAdded
	crossMoved
	xcvrDrained
	xcvrEnabled     // a drained, tuned transceiver goes live as it is
	xcvrRetunedLive // drained, retuned and re-enabled
	ampToggled
	xcvrRetunedDrained
	driftKinds
)

// apply makes one drift and reports whether the drawn kind was possible
// on the drawn device.
func (d *drifter) apply() bool {
	kinds := driftKinds
	if d.reconcilable {
		kinds = xcvrRetunedDrained
	}
	switch kind := d.rng.Intn(kinds); kind {
	case crossRemoved, crossAdded, crossMoved:
		dev := pick(d.rng, d.switches)
		cross, ins, freeIn, freeOut := d.cross(dev)
		if kind != crossAdded && len(ins) == 0 {
			return false
		}
		if kind != crossRemoved && (len(freeIn) == 0 || len(freeOut) == 0) {
			return false
		}
		in, disconnect := pick(d.rng, freeIn), []int(nil)
		if kind != crossAdded {
			in = pick(d.rng, ins)
			disconnect = []int{in}
		}
		switch {
		case kind == crossRemoved:
			poke(d.t, d.rig, dev, "switch-batch", switchArgs(disconnect, nil, nil))
		case kind == crossMoved && d.rng.Intn(2) == 0: // the output moves to another input
			poke(d.t, d.rig, dev, "switch-batch", switchArgs(disconnect, []int{pick(d.rng, freeIn)}, []int{cross[in]}))
		default: // the input moves to another output, or a new circuit
			poke(d.t, d.rig, dev, "switch-batch", switchArgs(disconnect, []int{in}, []int{pick(d.rng, freeOut)}))
		}
	case xcvrDrained, xcvrEnabled, xcvrRetunedLive, xcvrRetunedDrained:
		dev := pick(d.rng, d.banks)
		tuned, live := d.rig.Testbed.Devices[dev].(*control.TransceiverBank).Snapshot()
		var among []int
		for i := range live {
			ok := false
			switch kind {
			case xcvrDrained:
				ok = live[i]
			case xcvrEnabled:
				ok = !live[i] && tuned[i] >= 0
			case xcvrRetunedLive:
				ok = live[i] && (!d.reconcilable || d.exp.Enabled[dev][i])
			case xcvrRetunedDrained:
				ok = !live[i]
			}
			if ok {
				among = append(among, i)
			}
		}
		if len(among) == 0 {
			return false
		}
		i := pick(d.rng, among)
		if kind == xcvrDrained || kind == xcvrRetunedLive {
			poke(d.t, d.rig, dev, "disable-batch", idxs(i))
		}
		if kind == xcvrRetunedLive || kind == xcvrRetunedDrained {
			poke(d.t, d.rig, dev, "tune-batch", tune(i, d.rng.Intn(d.rig.Dep.Region.Lambda)))
		}
		if kind == xcvrEnabled || kind == xcvrRetunedLive {
			poke(d.t, d.rig, dev, "enable-batch", idxs(i))
		}
	case ampToggled:
		dev := pick(d.rng, d.amps)
		op := "enable"
		if d.rig.Testbed.Devices[dev].(*control.Amplifier).Enabled() {
			op = "disable"
		}
		poke(d.t, d.rig, dev, op, nil)
	}
	return true
}

// round applies 1–5 drifts.
func (d *drifter) round() {
	for n := 1 + d.rng.Intn(5); n > 0; {
		if d.apply() {
			n--
		}
	}
}

// TestAuditPassesIffRepairIsEmpty is the one-comparison property, over 200
// seeded rounds of random drift on every device kind: the audit passes
// exactly when the repair of the same states is empty, and executing the
// repair makes the audit pass and the next repair empty.
func TestAuditPassesIffRepairIsEmpty(t *testing.T) {
	rig, exp := intentRig(t, nil)
	ctl := rig.Testbed.Controller
	ctx := context.Background()
	agree := func(when string) control.Change {
		t.Helper()
		audit := ctl.Audit(exp)
		ch, err := exp.Repair(deviceStates(t, rig))
		if err != nil {
			t.Fatalf("%s: repair: %v", when, err)
		}
		if (audit == nil) != EmptyChange(ch) {
			t.Fatalf("%s: audit = %v, repair = %+v", when, audit, ch)
		}
		return ch
	}
	agree("converged")

	d := newDrifter(t, 17, rig, exp, false)
	drifted := 0
	for round := 0; round < 200; round++ {
		d.round()
		ch := agree(fmt.Sprintf("round %d, drifted", round))
		if EmptyChange(ch) {
			continue // the round's drifts undid each other
		}
		drifted++
		if _, err := ctl.Reconfigure(ctx, ch); err != nil {
			t.Fatalf("round %d: repair reconfigure %+v: %v", round, ch, err)
		}
		if ch := agree(fmt.Sprintf("round %d, repaired", round)); !EmptyChange(ch) {
			t.Fatalf("round %d: a second repair is not empty: %+v", round, ch)
		}
	}
	if drifted < 190 {
		t.Errorf("%d of 200 rounds left the devices drifted: the schedule tests little", drifted)
	}
}

// reconcileOracle is Fabric.Reconcile as it stood before control.Expected
// owned the comparison (its own walk over the fabric's circuits, in node
// order, reading the state maps itself), kept as the reference for the
// drifts it handled.
func reconcileOracle(f *Fabric, states map[string]map[string]any) control.Change {
	var ch control.Change
	exp := f.Expected()

	// Intended wavelength per live transceiver index.
	wl := make(map[string]map[int]int)
	intendWl := func(dev string, idx, slot int) {
		if wl[dev] == nil {
			wl[dev] = make(map[int]int)
		}
		wl[dev][idx] = slot
	}
	forEachCircuit(f, func(c *circuit) {
		for slot := 0; slot < c.live; slot++ {
			intendWl(f.XcvrName(c.pair.A), c.xcvrA[slot], slot)
			intendWl(f.XcvrName(c.pair.B), c.xcvrB[slot], slot)
		}
	})

	// OSS cross-connect repair.
	for node, size := range f.ossSize {
		if size == 0 {
			continue
		}
		name := f.OSSName(node)
		st, ok := states[name]
		if !ok {
			continue
		}
		actual := make(map[int]int)
		ins, _ := st["in"].([]int) // an idle switch reports [], which is no []int
		for i, in := range ins {
			actual[in] = st["out"].([]int)[i]
		}
		want := exp.Cross[name]
		for _, in := range sortedKeys(actual) {
			if out, ok := want[in]; !ok || out != actual[in] {
				ch.Switches = append(ch.Switches, control.OSSOp{Device: name, In: in, Disconnect: true})
			}
		}
		for _, in := range sortedKeys(want) {
			if out, ok := actual[in]; !ok || out != want[in] {
				ch.Switches = append(ch.Switches, control.OSSOp{Device: name, In: in, Out: want[in]})
			}
		}
	}

	// Transceiver repair: drain strays, retune+undrain missing live slots.
	for _, dc := range f.dep.Region.Map.DCs() {
		name := f.XcvrName(dc)
		st, ok := states[name]
		if !ok {
			continue
		}
		tuned, actEn := unpackBank(st)
		wantEn := exp.Enabled[name]
		for idx := range actEn {
			want := idx < len(wantEn) && wantEn[idx]
			switch {
			case actEn[idx] && !want:
				ch.Drain = append(ch.Drain, control.TransceiverOp{Device: name, Idx: idx})
			case want:
				slot := wl[name][idx]
				if actEn[idx] && idx < len(tuned) && tuned[idx] == slot {
					continue // already live on the right wavelength
				}
				if actEn[idx] {
					ch.Drain = append(ch.Drain, control.TransceiverOp{Device: name, Idx: idx})
				}
				ch.Retunes = append(ch.Retunes, control.TransceiverOp{Device: name, Idx: idx, Wavelength: slot})
				ch.Undrain = append(ch.Undrain, control.TransceiverOp{Device: name, Idx: idx})
			}
		}
	}

	// Amplifier repair: an amp is on iff a live circuit crosses its site.
	for _, node := range sortedKeys(f.dep.Plan.Amps) {
		if f.dep.Plan.Amps[node] == 0 {
			continue
		}
		name := f.AmpName(node)
		st, ok := states[name]
		if !ok {
			continue
		}
		actual, _ := st["enabled"].(bool)
		want := f.ampRefs[node] > 0
		if actual != want {
			ch.Amps = append(ch.Amps, control.AmpOp{Device: name, Enable: want})
		}
	}
	return ch
}

// rebuildExpected is the intent rebuilt from the fabric's circuits, as
// Fabric.Expected built it before the books were the intent; kept as the
// oracle of what Compile publishes. It walks the hops of every circuit.
func rebuildExpected(f *Fabric) control.Expected {
	exp := control.Expected{
		Cross:   make(map[string]map[int]int),
		Tuned:   make(map[string][]int),
		Enabled: make(map[string][]bool),
		Amps:    make(map[string]bool),
	}
	for node, size := range f.ossSize {
		if size > 0 {
			exp.Cross[f.OSSName(node)] = make(map[int]int)
		}
	}
	for _, dc := range f.dep.Region.Map.DCs() {
		wl := f.tuned[dc].v
		exp.Tuned[f.XcvrName(dc)], exp.Enabled[f.XcvrName(dc)] = slices.Clone(wl), make([]bool, len(wl))
	}
	for node, count := range f.dep.Plan.Amps {
		if count > 0 {
			exp.Amps[f.AmpName(node)] = f.ampRefs[node] > 0
		}
	}
	cross := func(node, in, out int) { exp.Cross[f.OSSName(node)][in] = out }
	forEachCircuit(f, func(c *circuit) {
		_ = f.hops(c, cross) // an established circuit's ports resolved at compile
		liveA, liveB := exp.Enabled[f.XcvrName(c.pair.A)], exp.Enabled[f.XcvrName(c.pair.B)]
		for slot := 0; slot < c.live; slot++ {
			liveA[c.xcvrA[slot]], liveB[c.xcvrB[slot]] = true, true
		}
	})
	return exp
}

func forEachCircuit(f *Fabric, fn func(*circuit)) {
	for _, cs := range f.full {
		for _, c := range cs {
			fn(c)
		}
	}
	for _, c := range f.residual {
		fn(c)
	}
}

func sortedKeys[V any](m map[int]V) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// byDevice orders a change's operations by device name, keeping each
// device's own order: the oracle walks devices in node order, Repair in
// name order, and Reconfigure groups by device either way.
func byDevice(ch control.Change) control.Change {
	sort.SliceStable(ch.Drain, func(i, j int) bool { return ch.Drain[i].Device < ch.Drain[j].Device })
	sort.SliceStable(ch.Switches, func(i, j int) bool { return ch.Switches[i].Device < ch.Switches[j].Device })
	sort.SliceStable(ch.Amps, func(i, j int) bool { return ch.Amps[i].Device < ch.Amps[j].Device })
	sort.SliceStable(ch.Retunes, func(i, j int) bool { return ch.Retunes[i].Device < ch.Retunes[j].Device })
	sort.SliceStable(ch.Undrain, func(i, j int) bool { return ch.Undrain[i].Device < ch.Undrain[j].Device })
	return ch
}

// TestRepairMatchesReconcileOracle: on the drifts the old Fabric.Reconcile
// handled, Expected.Repair returns the same change.
func TestRepairMatchesReconcileOracle(t *testing.T) {
	rig, exp := intentRig(t, nil)
	d := newDrifter(t, 18, rig, exp, true)
	nonEmpty := 0
	for round := 0; round < 100; round++ {
		d.round()
		states := deviceStates(t, rig)
		got, err := exp.Repair(states)
		if err != nil {
			t.Fatal(err)
		}
		want := reconcileOracle(rig.Fab, states)
		if !reflect.DeepEqual(byDevice(got), byDevice(want)) {
			t.Fatalf("round %d:\nrepair %+v\noracle %+v", round, got, want)
		}
		if !EmptyChange(got) {
			nonEmpty++
		}
		// Repair only now and then, so drifts also pile up across rounds.
		if round%3 == 0 {
			if _, err := rig.Testbed.Controller.Reconfigure(context.Background(), got); err != nil {
				t.Fatalf("round %d: repair reconfigure: %v", round, err)
			}
		}
	}
	if nonEmpty < 90 {
		t.Errorf("%d of 100 rounds had anything to repair", nonEmpty)
	}
}

// TestIntentNamesEveryBuiltDevice: on a fabric-built region the audit
// fetches every device the controller is connected to, idle ones included,
// exactly once; and an amplifier is read as strictly as a bank — a state
// whose enabled flag is not a boolean is a *DeviceError from the audit and
// from the repair, not an amplifier read as parked.
func TestIntentNamesEveryBuiltDevice(t *testing.T) {
	shims := devicetest.Set{}
	rig, exp := intentRig(t, shims)
	ctl := rig.Testbed.Controller

	shims.Take()
	if err := ctl.Audit(exp); err != nil {
		t.Fatal(err)
	}
	fetched := shims.Take()
	for _, name := range ctl.Devices() {
		if got := fetched[name]; !slices.Equal(got, []devicetest.Call{{Op: "state"}}) {
			t.Errorf("audit sent %s %v, want one state fetch", name, got)
		}
	}
	if len(fetched) != len(ctl.Devices()) {
		t.Errorf("audit called %d devices, the controller has %d", len(fetched), len(ctl.Devices()))
	}

	// The amplifier reports its enabled flag as a string.
	var amp string
	for name, dev := range shims {
		if dev.Kind() == "amp" {
			amp = name
			dev.Arm(func(op string, args map[string]any, next devicetest.Next) (map[string]any, error) {
				st, err := next(op, args)
				if op == "state" && err == nil {
					st["enabled"] = "yes"
				}
				return st, err
			})
		}
	}
	_, repairErr := ctl.Repair(context.Background(), exp)
	_, pureErr := exp.Repair(deviceStates(t, rig))
	for what, err := range map[string]error{"Audit": ctl.Audit(exp), "Controller.Repair": repairErr, "Expected.Repair": pureErr} {
		var de *control.DeviceError
		if !errors.As(err, &de) || de.Device != amp {
			t.Errorf("%s = %v, want a DeviceError for %s", what, err, amp)
		}
	}
}

// TestAuditReplyBudget: on the 20-DC region what the devices send back for
// one audit is at most half of what the same states took as per-element
// JSON arrays and a string-keyed object (the reply shapes before the packed
// state, rebuilt here from the devices' own accessors).
func TestAuditReplyBudget(t *testing.T) {
	shims := devicetest.Set{}
	rig, exp := intentRig(t, shims)
	ctl := rig.Testbed.Controller
	var mu sync.Mutex
	states := make(map[string]map[string]any) // the last state reply of every device
	for name, dev := range shims {
		dev.Arm(func(op string, args map[string]any, next devicetest.Next) (map[string]any, error) {
			st, err := next(op, args)
			if op == "state" {
				mu.Lock()
				states[name] = st
				mu.Unlock()
			}
			return st, err
		})
	}

	shims.Take()
	if err := ctl.Audit(exp); err != nil {
		t.Fatal(err)
	}
	fetched := shims.Take()
	size := func(result map[string]any) int {
		line, err := json.Marshal(map[string]any{"id": 1, "ok": true, "result": result})
		if err != nil {
			t.Fatal(err)
		}
		return len(line) + 1
	}
	packed, elementwise := 0, 0
	for _, name := range ctl.Devices() {
		if got := fetched[name]; !slices.Equal(got, []devicetest.Call{{Op: "state"}}) {
			t.Errorf("audit sent %s %v, want one state fetch", name, got)
		}
		packed += size(states[name])
		old := states[name]
		switch dev := shims[name].Inner().(type) {
		case *control.OSS:
			cross := make(map[string]int)
			ins, outs := dev.Cross()
			for i, in := range ins {
				cross[strconv.Itoa(in)] = outs[i]
			}
			old = map[string]any{"cross": cross, "ports": old["ports"]}
		case *control.TransceiverBank:
			tuned, enabled := dev.Snapshot()
			old = map[string]any{"tuned": tuned, "enabled": enabled, "lambda": old["lambda"]}
		}
		elementwise += size(old)
	}
	t.Logf("state replies of one audit: %d bytes packed, %d bytes element by element", packed, elementwise)
	if 2*packed > elementwise {
		t.Errorf("packed replies take %d bytes, more than half of the %d they took element by element", packed, elementwise)
	}
}

// unpackBank is the test's own reader of a bank's packed state (DESIGN §6):
// hex digits of wavelength+1 per transceiver, and one hex digit per four
// transceivers with the first in the high bit.
func unpackBank(st map[string]any) (tuned []int, enabled []bool) {
	width := len(strconv.FormatInt(int64(st["lambda"].(float64)), 16))
	packed := st["tuned"].(string)
	for i := 0; i < len(packed); i += width {
		v, err := strconv.ParseInt(packed[i:i+width], 16, 64)
		if err != nil {
			panic(err)
		}
		tuned = append(tuned, int(v)-1)
	}
	for i := range tuned {
		digit, err := strconv.ParseInt(st["enabled"].(string)[i/4:i/4+1], 16, 8)
		if err != nil {
			panic(err)
		}
		enabled = append(enabled, digit&(8>>(i%4)) != 0)
	}
	return tuned, enabled
}
