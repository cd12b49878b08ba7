package fabric

import (
	"maps"
	"slices"

	"iris/internal/control"
)

// This file holds the runtime support a long-running controller needs on
// top of the one-shot compiler: transactional clones (compile a change
// against a copy, commit only if the devices accepted it) and
// reconciliation (compute the repair change that moves partially
// reconfigured devices back to the fabric's intent).

// Clone returns a copy of the fabric's allocator and circuit state to
// compile a change against. A caller can Compile against the clone and,
// if the change executes cleanly, adopt the clone as the new fabric state
// — or discard it after a failure, keeping the last-known-good intent.
// The deployment and the port layout are shared: both are immutable after
// Build.
//
// The copy is copy-on-write, so it costs what the compile changes. Clone
// copies the fabric's per-duct and per-node slices (a memmove each) and
// its two pair maps, not what they point to. Compiled circuits are never
// written, and a full[p] slice is grown as a copy. A pool or book is
// copied by the first fabric that writes it after the Clone: Clone gives
// both fabrics new owner tokens, its one write to f, so neither owns what
// they share, and a book the intent published has no owner at all. The
// clone starts from f's Expected, which its Compile patches. Reads of f
// (Expected, CircuitCount) may run while the clone compiles.
func (f *Fabric) Clone() *Fabric {
	g := *f
	g.ductFibers = slices.Clone(f.ductFibers)
	g.localPorts = slices.Clone(f.localPorts)
	g.xcvrs = slices.Clone(f.xcvrs)
	g.full = maps.Clone(f.full)
	g.residual = maps.Clone(f.residual)
	g.ampRefs = slices.Clone(f.ampRefs)
	g.tuned = slices.Clone(f.tuned)
	g.live = slices.Clone(f.live)
	g.cross = slices.Clone(f.cross)
	g.dirty = touched{slices.Clone(f.dirty.oss), slices.Clone(f.dirty.banks), slices.Clone(f.dirty.amps)}
	f.owner, g.owner = new(token), new(token)
	return &g
}

// EmptyChange reports whether a change contains no operations; a repair
// (control.Controller.Repair) that is empty means the devices already
// match intent.
func EmptyChange(ch control.Change) bool {
	return len(ch.Drain) == 0 && len(ch.Switches) == 0 && len(ch.Amps) == 0 &&
		len(ch.Retunes) == 0 && len(ch.Undrain) == 0
}
