package fabric

import (
	"fmt"
	"sort"

	"iris/internal/control"
	"iris/internal/hose"
)

// This file holds the runtime support a long-running controller needs on
// top of the one-shot compiler: transactional clones (compile a change
// against a copy, commit only if the devices accepted it) and
// reconciliation (compute the repair change that moves partially
// reconfigured devices back to the fabric's intent).

// Clone returns a deep copy of the fabric's allocator and circuit state.
// The deployment and the port layout are shared: both are immutable after
// Build. A caller can CompileTarget against the clone and, if the change
// executes cleanly, adopt the clone as the new fabric state — or discard
// it after a failure, keeping the last-known-good intent.
func (f *Fabric) Clone() *Fabric {
	g := *f
	g.ductFibers = clonePools(f.ductFibers)
	g.localPorts = clonePools(f.localPorts)
	g.xcvrs = clonePools(f.xcvrs)
	g.full = make(map[hose.Pair][]*circuit, len(f.full))
	for p, cs := range f.full {
		dup := make([]*circuit, len(cs))
		for i, c := range cs {
			dup[i] = c.clone()
		}
		g.full[p] = dup
	}
	g.residual = make(map[hose.Pair]*circuit, len(f.residual))
	for p, c := range f.residual {
		g.residual[p] = c.clone()
	}
	g.ampRefs = make(map[int]int, len(f.ampRefs))
	for n, refs := range f.ampRefs {
		g.ampRefs[n] = refs
	}
	return &g
}

func clonePools(ps map[int]*pool) map[int]*pool {
	out := make(map[int]*pool, len(ps))
	for k, p := range ps {
		out[k] = &pool{n: p.n, free: append([]int(nil), p.free...)}
	}
	return out
}

// clone copies a circuit. The path is shared: it is read-only after
// construction.
func (c *circuit) clone() *circuit {
	d := *c
	d.fiberIdx = append([]int(nil), c.fiberIdx...)
	d.xcvrA = append([]int(nil), c.xcvrA...)
	d.xcvrB = append([]int(nil), c.xcvrB...)
	return &d
}

// Reconcile compares device-reported state against the fabric's intent and
// returns the change that repairs every drifted device — the anti-entropy
// pass the daemon runs after a reconfiguration fails partway (§5.2's audit
// turned into repair). states maps device name to that device's "state"
// result as Controller.Call returns it; devices absent from the map are
// left untouched, and a malformed state is an error. The returned
// change follows the usual discipline: drains and disconnects first, then
// connects, retunes, undrains, so it is safe to hand to
// Controller.Reconfigure directly.
func (f *Fabric) Reconcile(states map[string]map[string]any) (control.Change, error) {
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
	for _, node := range sortedKeys(f.ossSize) {
		if f.ossSize[node] == 0 {
			continue
		}
		name := f.OSSName(node)
		st, ok := states[name]
		if !ok {
			continue
		}
		actual, err := control.StateCross(st)
		if err != nil {
			return control.Change{}, fmt.Errorf("fabric: reconcile %s: %w", name, err)
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
		tuned, err := control.StateInts(st, "tuned")
		if err != nil {
			return control.Change{}, fmt.Errorf("fabric: reconcile %s: %w", name, err)
		}
		actEn, err := control.StateBools(st, "enabled")
		if err != nil {
			return control.Change{}, fmt.Errorf("fabric: reconcile %s: %w", name, err)
		}
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
	return ch, nil
}

// EmptyChange reports whether a change contains no operations; a Reconcile
// result that is empty means the devices already match intent.
func EmptyChange(ch control.Change) bool {
	return len(ch.Drain) == 0 && len(ch.Switches) == 0 && len(ch.Amps) == 0 &&
		len(ch.Retunes) == 0 && len(ch.Fills) == 0 && len(ch.Undrain) == 0
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
