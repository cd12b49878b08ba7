package fabric

import (
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
	g.tuned = make(map[int][]int, len(f.tuned))
	for dc, tuned := range f.tuned {
		g.tuned[dc] = append([]int(nil), tuned...)
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

// clone copies a circuit. The path is shared: it is the plan's, read-only.
func (c *circuit) clone() *circuit {
	d := *c
	d.fiberIdx = append([]int(nil), c.fiberIdx...)
	d.xcvrA = append([]int(nil), c.xcvrA...)
	d.xcvrB = append([]int(nil), c.xcvrB...)
	return &d
}

// EmptyChange reports whether a change contains no operations; a repair
// (control.Expected.Repair) that is empty means the devices already match
// intent.
func EmptyChange(ch control.Change) bool {
	return len(ch.Drain) == 0 && len(ch.Switches) == 0 && len(ch.Amps) == 0 &&
		len(ch.Retunes) == 0 && len(ch.Fills) == 0 && len(ch.Undrain) == 0
}
