// Package fabric materialises a planned deployment (internal/core) into a
// concrete optical fabric: named devices with sized port counts, a
// deterministic port map for every fiber of every duct, and a compiler
// that turns circuit-allocation changes into the device operations the
// controller (internal/control) executes.
//
// It is the glue the paper describes between planning and operation
// (§5.1–§5.2): the planner decides fibers and equipment; the fabric
// assigns fibers to OSS ports and transceivers to wavelengths; the
// controller drains, switches, retunes and undrains.
//
// Modelling notes: OSS ports here are fiber-pair-granularity (one logical
// port per bidirectional pair — the physical device has two unidirectional
// ports per pair, which the cost model counts); amplifier loopback ports
// and cut-through bypasses affect which nodes a circuit is switched at,
// not the number of ops compiled per switched node.
package fabric

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"time"

	"iris/internal/control"
	"iris/internal/core"
	"iris/internal/hose"
	"iris/internal/optics"
	"iris/internal/plan"
)

// Fabric is the materialised deployment plus its current circuit state.
type Fabric struct {
	dep    *core.Deployment
	lambda int

	// Device names by node, built once: Clone shares them.
	ossNames, xcvrNames, ampNames []string

	// Port layout, by node; zero (nil) at a node without ports of the kind.
	ossSize   []int         // OSS port count
	ductBase  []map[int]int // duct -> first port index
	localBase []int         // a DC's first local (transceiver-side) port
	localSize []int         // a DC's local port count

	// Allocators: fiber pairs by duct, local ports and transceivers by DC.
	ductFibers []pool
	localPorts []pool
	xcvrs      []pool

	// Circuit state. A circuit and a full[p] slice's elements are never
	// written once compiled, so clones share them.
	full     map[hose.Pair][]*circuit
	residual map[hose.Pair]*circuit
	circuits int // circuits in full and residual

	// The books, by node: the state the fabric commanded of every device,
	// which is its intent. establish and teardown write them as they emit
	// the operations, and Compile publishes them as exp.
	//
	// ampRefs counts live circuits using each amplifier site, so the
	// compiler enables an amp with its first user and parks it with the
	// last.
	ampRefs []int
	// tuned is the last wavelength commanded for every transceiver of
	// every DC, -1 before the first. A freed transceiver keeps its tuning
	// on the device, so it keeps it here: the books are the device state.
	tuned []book[[]int]
	// live marks every DC's transceivers that carry a circuit.
	live []book[[]bool]
	// cross is every switch's cross-connect map, input port to output.
	cross []book[map[int]int]

	// exp is the intent as last published, by Build or by a Compile that
	// succeeded; dirty names the devices whose books were copied for
	// writing since.
	exp   control.Expected
	dirty touched

	// owner marks the pools and books this fabric may write in place; one
	// with another owner, or none, is shared and is copied before its
	// first write (see Clone).
	owner *token
}

// circuit is one end-to-end fiber circuit for a DC pair, along the
// pair's planned path. The path is the plan's and is shared, read-only.
type circuit struct {
	pair     hose.Pair
	path     *plan.PathInfo
	localA   int   // local port index at pair.A
	localB   int   // local port index at pair.B
	fiberIdx []int // per duct along the path: fiber-pair index in the duct
	// live wavelength slots and the transceivers carrying them, per DC.
	live  int
	xcvrA []int
	xcvrB []int
}

// pool is a free-list allocator over [0, n).
type pool struct {
	n     int
	free  []int
	owner *token // the fabric that may write it
}

func newPool(n int, owner *token) pool {
	p := pool{n: n, free: make([]int, n), owner: owner}
	for i := range p.free {
		p.free[i] = n - 1 - i // pop from the back yields ascending order
	}
	return p
}

func (p *pool) get() (int, bool) {
	if len(p.free) == 0 {
		return 0, false
	}
	v := p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	return v, true
}

func (p *pool) getN(k int) ([]int, bool) {
	if len(p.free) < k {
		return nil, false
	}
	out := make([]int, k)
	for i := range out {
		out[i], _ = p.get()
	}
	return out, true
}

func (p *pool) put(vs ...int) {
	p.free = append(p.free, vs...)
}

// A book is one device's table in the fabric's books. A published table
// has no owner, so it is never written again: the next write from any
// fabric copies it.
type book[T any] struct {
	v     T
	owner *token // the fabric that may write it
}

// touched names, by node, the switches, banks and amplifier sites whose
// books changed since the intent was published. A node may repeat.
type touched struct{ oss, banks, amps []int }

// A token is a fabric's mark of ownership. It is not zero-size, so every
// live token has an address of its own.
type token struct{ _ byte }

// own returns the pool at ps[k] (one of f's slices) for writing, copying
// its free list first when f does not own it.
func (f *Fabric) own(ps []pool, k int) *pool {
	p := &ps[k]
	if p.owner != f.owner {
		p.free, p.owner = slices.Clone(p.free), f.owner
	}
	return p
}

// ownCross, ownTuning and ownLive return a device's book for writing. The
// first write since the book was shared copies it and marks the device
// touched.
func (f *Fabric) ownCross(node int) map[int]int {
	b := &f.cross[node]
	if b.owner != f.owner {
		b.v, b.owner = maps.Clone(b.v), f.owner
		f.dirty.oss = append(f.dirty.oss, node)
	}
	return b.v
}

func (f *Fabric) ownTuning(dc int) []int {
	b := &f.tuned[dc]
	if b.owner != f.owner {
		b.v, b.owner = slices.Clone(b.v), f.owner
		f.dirty.banks = append(f.dirty.banks, dc)
	}
	return b.v
}

func (f *Fabric) ownLive(dc int) []bool {
	b := &f.live[dc]
	if b.owner != f.owner {
		b.v, b.owner = slices.Clone(b.v), f.owner
		f.dirty.banks = append(f.dirty.banks, dc)
	}
	return b.v
}

// Build materialises a deployment. The port layout is fully determined by
// the plan, so two Builds of the same deployment are identical. The empty
// region's intent is published from the books.
func Build(dep *core.Deployment) (*Fabric, error) {
	if dep == nil || dep.Plan == nil {
		return nil, fmt.Errorf("fabric: nil deployment")
	}
	m := dep.Region.Map
	pl := dep.Plan
	nodes := len(m.Nodes)
	f := &Fabric{
		dep:        dep,
		lambda:     dep.Region.Lambda,
		ossSize:    make([]int, nodes),
		ductBase:   make([]map[int]int, nodes),
		localBase:  make([]int, nodes),
		localSize:  make([]int, nodes),
		ductFibers: make([]pool, len(m.Ducts)),
		localPorts: make([]pool, nodes),
		xcvrs:      make([]pool, nodes),
		full:       make(map[hose.Pair][]*circuit),
		residual:   make(map[hose.Pair]*circuit),
		ampRefs:    make([]int, nodes),
		tuned:      make([]book[[]int], nodes),
		live:       make([]book[[]bool], nodes),
		cross:      make([]book[map[int]int], nodes),
		exp: control.Expected{
			Cross:   make(map[string]map[int]int),
			Tuned:   make(map[string][]int),
			Enabled: make(map[string][]bool),
			Amps:    make(map[string]bool),
		},
		owner: new(token),
	}
	for _, n := range m.Nodes {
		f.ossNames = append(f.ossNames, n.Name+"-oss")
		f.xcvrNames = append(f.xcvrNames, n.Name+"-xcvr")
		f.ampNames = append(f.ampNames, n.Name+"-amp")
	}

	// Duct-side ports, in duct-ID order for determinism.
	ductIDs := make([]int, 0, len(pl.Ducts))
	for id := range pl.Ducts {
		ductIDs = append(ductIDs, id)
	}
	sort.Ints(ductIDs)
	for _, id := range ductIDs {
		du := pl.Ducts[id]
		pairs := du.TotalPairs()
		if pairs == 0 {
			continue
		}
		f.ductFibers[id] = newPool(pairs, f.owner)
		d := m.Ducts[id]
		for _, end := range []int{d.A, d.B} {
			if f.ductBase[end] == nil {
				f.ductBase[end] = make(map[int]int)
			}
			f.ductBase[end][id] = f.ossSize[end]
			f.ossSize[end] += pairs
		}
	}

	// Local (transceiver-side) ports and transceiver banks at DCs: every
	// transceiver untuned and drained.
	dcs := m.DCs()
	for _, dc := range dcs {
		capacity := dep.Region.Capacity[dc]
		local := capacity + len(dcs) - 1 // full fibers + one residual per peer
		f.localBase[dc] = f.ossSize[dc]
		f.localSize[dc] = local
		f.ossSize[dc] += local
		f.localPorts[dc] = newPool(local, f.owner)
		f.xcvrs[dc] = newPool(capacity*f.lambda, f.owner)
		wl := make([]int, capacity*f.lambda)
		for i := range wl {
			wl[i] = -1
		}
		f.tuned[dc].v, f.live[dc].v = wl, make([]bool, len(wl))
		f.dirty.banks = append(f.dirty.banks, dc)
	}
	// Every switch empty and every amplifier parked.
	for node, size := range f.ossSize {
		if size > 0 {
			f.cross[node].v = make(map[int]int)
			f.dirty.oss = append(f.dirty.oss, node)
		}
	}
	for node := range pl.Amps {
		f.dirty.amps = append(f.dirty.amps, node)
	}
	f.publish()
	return f, nil
}

// Deployment returns the deployment the fabric was built from.
func (f *Fabric) Deployment() *core.Deployment { return f.dep }

// Device naming.

// OSSName returns the device name of a node's optical space switch.
func (f *Fabric) OSSName(node int) string { return f.ossNames[node] }

// XcvrName returns the device name of a DC's transceiver bank.
func (f *Fabric) XcvrName(dc int) string { return f.xcvrNames[dc] }

// AmpName returns the device name of a node's amplifier group.
func (f *Fabric) AmpName(node int) string { return f.ampNames[node] }

// Devices builds the emulated device set for the whole fabric, sized from
// the plan, suitable for control.StartTestbed.
func (f *Fabric) Devices(ossDelay time.Duration) map[string]control.Device {
	devs := make(map[string]control.Device)
	m := f.dep.Region.Map
	for node, size := range f.ossSize {
		if size == 0 {
			continue
		}
		devs[f.OSSName(node)] = control.NewOSS(size, ossDelay)
	}
	for _, dc := range m.DCs() {
		devs[f.XcvrName(dc)] = control.NewTransceiverBank(
			f.dep.Region.Capacity[dc]*f.lambda, f.lambda)
	}
	for node, count := range f.dep.Plan.Amps {
		if count > 0 {
			devs[f.AmpName(node)] = control.NewAmplifier(optics.AmpGainDB, -3)
		}
	}
	return devs
}

// port returns the OSS port of fiber-pair fiberIdx of the given duct at
// the given node.
func (f *Fabric) port(node, duct, fiberIdx int) (int, error) {
	bases := f.ductBase[node]
	if bases == nil {
		return 0, fmt.Errorf("fabric: node %d has no duct ports", node)
	}
	base, ok := bases[duct]
	if !ok {
		return 0, fmt.Errorf("fabric: duct %d does not terminate at node %d", duct, node)
	}
	return base + fiberIdx, nil
}

// localPort returns the transceiver-side OSS port of a DC's local fiber.
func (f *Fabric) localPort(dc, localIdx int) (int, error) {
	if localIdx < 0 || localIdx >= f.localSize[dc] {
		return 0, fmt.Errorf("fabric: local index %d out of range [0,%d) at node %d", localIdx, f.localSize[dc], dc)
	}
	return f.localBase[dc] + localIdx, nil
}

// establish allocates resources for one circuit, appends its device
// operations to the change and writes them into the books.
func (f *Fabric) establish(ch *control.Change, p hose.Pair, live int) (*circuit, error) {
	path, ok := f.dep.Plan.Paths[p.Canonical()]
	if !ok {
		return nil, fmt.Errorf("fabric: no planned path for %d-%d", p.A, p.B)
	}
	c := &circuit{pair: p.Canonical(), path: path, live: live}

	la, ok := f.own(f.localPorts, c.pair.A).get()
	if !ok {
		return nil, fmt.Errorf("fabric: DC %d out of local ports", c.pair.A)
	}
	lb, ok := f.own(f.localPorts, c.pair.B).get()
	if !ok {
		f.localPorts[c.pair.A].put(la)
		return nil, fmt.Errorf("fabric: DC %d out of local ports", c.pair.B)
	}
	c.localA, c.localB = la, lb

	for _, duct := range path.Ducts {
		idx, ok := f.own(f.ductFibers, duct).get()
		if !ok {
			f.release(c)
			return nil, fmt.Errorf("fabric: duct %d out of fibers for %d-%d", duct, p.A, p.B)
		}
		c.fiberIdx = append(c.fiberIdx, idx)
	}

	xa, ok := f.own(f.xcvrs, c.pair.A).getN(live)
	if !ok {
		f.release(c)
		return nil, fmt.Errorf("fabric: DC %d out of transceivers", c.pair.A)
	}
	xb, ok := f.own(f.xcvrs, c.pair.B).getN(live)
	if !ok {
		f.xcvrs[c.pair.A].put(xa...)
		f.release(c)
		return nil, fmt.Errorf("fabric: DC %d out of transceivers", c.pair.B)
	}
	c.xcvrA, c.xcvrB = xa, xb

	if err := f.circuitOps(ch, c, false); err != nil {
		f.xcvrs[c.pair.A].put(xa...)
		f.xcvrs[c.pair.B].put(xb...)
		f.release(c)
		return nil, err
	}
	// First circuit through an amplifier site turns its amps on.
	for _, n := range path.AmpNodes {
		if f.ampRefs[n] == 0 {
			ch.Amps = append(ch.Amps, control.AmpOp{Device: f.AmpName(n), Enable: true})
			f.dirty.amps = append(f.dirty.amps, n)
		}
		f.ampRefs[n]++
	}
	tunedA, tunedB := f.ownTuning(c.pair.A), f.ownTuning(c.pair.B)
	liveA, liveB := f.ownLive(c.pair.A), f.ownLive(c.pair.B)
	for slot := 0; slot < live; slot++ {
		tunedA[xa[slot]], tunedB[xb[slot]] = slot, slot
		liveA[xa[slot]], liveB[xb[slot]] = true, true
		ch.Retunes = append(ch.Retunes,
			control.TransceiverOp{Device: f.XcvrName(c.pair.A), Idx: xa[slot], Wavelength: slot},
			control.TransceiverOp{Device: f.XcvrName(c.pair.B), Idx: xb[slot], Wavelength: slot},
		)
		ch.Undrain = append(ch.Undrain,
			control.TransceiverOp{Device: f.XcvrName(c.pair.A), Idx: xa[slot]},
			control.TransceiverOp{Device: f.XcvrName(c.pair.B), Idx: xb[slot]},
		)
	}
	f.circuits++
	return c, nil
}

// teardown appends the operations that remove a circuit, writes them
// into the books and frees its resources.
func (f *Fabric) teardown(ch *control.Change, c *circuit) error {
	liveA, liveB := f.ownLive(c.pair.A), f.ownLive(c.pair.B)
	for slot := 0; slot < c.live; slot++ {
		liveA[c.xcvrA[slot]], liveB[c.xcvrB[slot]] = false, false
		ch.Drain = append(ch.Drain,
			control.TransceiverOp{Device: f.XcvrName(c.pair.A), Idx: c.xcvrA[slot]},
			control.TransceiverOp{Device: f.XcvrName(c.pair.B), Idx: c.xcvrB[slot]},
		)
	}
	if err := f.circuitOps(ch, c, true); err != nil {
		return err
	}
	// Last circuit through an amplifier site parks its amps.
	for _, n := range c.path.AmpNodes {
		f.ampRefs[n]--
		if f.ampRefs[n] == 0 {
			ch.Amps = append(ch.Amps, control.AmpOp{Device: f.AmpName(n), Enable: false})
			f.dirty.amps = append(f.dirty.amps, n)
		}
	}
	f.own(f.xcvrs, c.pair.A).put(c.xcvrA...)
	f.own(f.xcvrs, c.pair.B).put(c.xcvrB...)
	f.release(c)
	f.circuits--
	return nil
}

// release returns the circuit's ports and fibers to their pools. It
// leaves the circuit as it was: a clone may share it.
func (f *Fabric) release(c *circuit) {
	f.own(f.localPorts, c.pair.A).put(c.localA)
	f.own(f.localPorts, c.pair.B).put(c.localB)
	for i, duct := range c.path.Ducts[:len(c.fiberIdx)] {
		f.own(f.ductFibers, duct).put(c.fiberIdx[i])
	}
}

// circuitOps appends the OSS operations along the circuit's path to the
// change and writes them into the switches' cross-connect books, in one
// walk. For a disconnect only the input port of each cross-connect is
// named.
func (f *Fabric) circuitOps(ch *control.Change, c *circuit, disconnect bool) error {
	return f.hops(c, func(node, in, out int) {
		if cross := f.ownCross(node); disconnect {
			delete(cross, in)
		} else {
			cross[in] = out
		}
		ch.Switches = append(ch.Switches, control.OSSOp{Device: f.OSSName(node), In: in, Out: out, Disconnect: disconnect})
	})
}

// hops calls visit with every cross-connect of the circuit, in path order:
// the switched node and its input and output port.
func (f *Fabric) hops(c *circuit, visit func(node, in, out int)) error {
	// Source DC: local port -> first duct.
	aLocal, err := f.localPort(c.pair.A, c.localA)
	if err != nil {
		return err
	}
	first, err := f.port(pathEndpointA(c), c.path.Ducts[0], c.fiberIdx[0])
	if err != nil {
		return err
	}
	visit(pathEndpointA(c), aLocal, first)

	// Interior switched nodes.
	for i := 0; i < len(c.path.Ducts)-1; i++ {
		node := c.path.Nodes[i+1]
		if slices.Contains(c.path.Bypassed, node) {
			continue // cut-through: the fiber passes the hut unswitched
		}
		in, err := f.port(node, c.path.Ducts[i], c.fiberIdx[i])
		if err != nil {
			return err
		}
		out, err := f.port(node, c.path.Ducts[i+1], c.fiberIdx[i+1])
		if err != nil {
			return err
		}
		visit(node, in, out)
	}

	// Destination DC: last duct -> local port.
	last := len(c.path.Ducts) - 1
	in, err := f.port(pathEndpointB(c), c.path.Ducts[last], c.fiberIdx[last])
	if err != nil {
		return err
	}
	bLocal, err := f.localPort(c.pair.B, c.localB)
	if err != nil {
		return err
	}
	visit(pathEndpointB(c), in, bLocal)
	return nil
}

func pathEndpointA(c *circuit) int { return c.path.Nodes[0] }
func pathEndpointB(c *circuit) int { return c.path.Nodes[len(c.path.Nodes)-1] }

// Compile computes the change that applies pair deltas — the diff of
// the fabric's circuits to a target allocation, in pair order, as
// core.DiffAlloc returns it — and updates the circuit state and the
// books. Only the named pairs are visited, and on success the books of
// the devices they touched are published as the fabric's Expected. Each
// delta's Old values must be the circuits the fabric holds for its pair;
// otherwise Compile returns an error and leaves the fabric as it was. The
// returned change follows the §5.2 discipline: drains of torn-down or
// resized circuits come first, then all OSS operations, then retunes,
// then undrains. Each switch receives its operations as one batch, which
// tears down its disconnects before it makes its connects.
func (f *Fabric) Compile(pairs []core.PairDelta) (control.Change, error) {
	for _, d := range pairs {
		p := d.Pair()
		full, res := len(f.full[p]), 0
		if rc := f.residual[p]; rc != nil {
			res = rc.live
		}
		if full != d.OldFibers || res != d.OldResidual {
			return control.Change{}, fmt.Errorf("fabric: pair %d-%d holds %d fibers and %d residual wavelengths, the delta starts from %d and %d",
				p.A, p.B, full, res, d.OldFibers, d.OldResidual)
		}
	}
	var ch control.Change
	// Teardowns first so their fibers and transceivers free up for the
	// establishes compiled after them (a switch's batch tears down its
	// disconnects before it makes its connects).
	for _, d := range pairs {
		p := d.Pair()
		for cur := f.full[p]; len(cur) > d.NewFibers; {
			c := cur[len(cur)-1]
			cur = cur[:len(cur)-1]
			f.full[p] = cur
			if err := f.teardown(&ch, c); err != nil {
				return control.Change{}, err
			}
		}

		if rc := f.residual[p]; rc != nil && rc.live != d.NewResidual {
			if err := f.teardown(&ch, rc); err != nil {
				return control.Change{}, err
			}
			delete(f.residual, p)
		}
	}
	for _, d := range pairs {
		p := d.Pair()
		if grow := d.NewFibers - len(f.full[p]); grow > 0 {
			// A clone shares the slice's array: grow a copy of it.
			f.full[p] = slices.Grow(slices.Clip(f.full[p]), grow)
			for len(f.full[p]) < d.NewFibers {
				c, err := f.establish(&ch, p, f.lambda)
				if err != nil {
					return control.Change{}, err
				}
				f.full[p] = append(f.full[p], c)
			}
		}
		if d.NewResidual > 0 && f.residual[p] == nil {
			c, err := f.establish(&ch, p, d.NewResidual)
			if err != nil {
				return control.Change{}, err
			}
			f.residual[p] = c
		}
	}
	f.publish()
	return ch, nil
}

// CompileTarget is Compile of the diff from the fabric's circuits to
// alloc: the change that moves the fabric to the allocation.
func (f *Fabric) CompileTarget(alloc core.Allocation) (control.Change, error) {
	return f.Compile(core.DiffAlloc(f.held(), alloc))
}

// held is the allocation the fabric's circuits carry.
func (f *Fabric) held() core.Allocation {
	a := core.Allocation{
		Fibers:   make(map[hose.Pair]int, len(f.full)),
		Residual: make(map[hose.Pair]int, len(f.residual)),
	}
	for p, cs := range f.full {
		a.Fibers[p] = len(cs)
	}
	for p, c := range f.residual {
		a.Residual[p] = c.live
	}
	return a
}

// Expected returns the controller's intent for every device the fabric
// built: each OSS's cross-connect map (empty for an idle switch), each
// bank's per-transceiver wavelength and live/drained state, and each
// amplifier group on exactly when a circuit crosses its site. It is a
// read of what Build or the last Compile that succeeded published (a
// compile that fails midway publishes nothing), and nothing in it is
// ever written again: a caller may hold it across later compiles and
// read it from any goroutine.
func (f *Fabric) Expected() control.Expected { return f.exp }

// publish makes the books of the touched devices the intent: a new
// Expected that shares every other device's entry with the last one and
// points each touched device's entry at its book. A published book loses
// its owner, so the next write from any fabric copies it.
func (f *Fabric) publish() {
	if len(f.dirty.oss) > 0 {
		cross := maps.Clone(f.exp.Cross)
		for _, n := range f.dirty.oss {
			b := &f.cross[n]
			cross[f.ossNames[n]], b.owner = b.v, nil
		}
		f.exp.Cross = cross
	}
	if len(f.dirty.banks) > 0 {
		tuned, live := maps.Clone(f.exp.Tuned), maps.Clone(f.exp.Enabled)
		for _, dc := range f.dirty.banks {
			t, l := &f.tuned[dc], &f.live[dc]
			tuned[f.xcvrNames[dc]], t.owner = t.v, nil
			live[f.xcvrNames[dc]], l.owner = l.v, nil
		}
		f.exp.Tuned, f.exp.Enabled = tuned, live
	}
	if len(f.dirty.amps) > 0 {
		amps := maps.Clone(f.exp.Amps)
		for _, n := range f.dirty.amps {
			if f.dep.Plan.Amps[n] > 0 {
				amps[f.ampNames[n]] = f.ampRefs[n] > 0
			}
		}
		f.exp.Amps = amps
	}
	f.dirty = touched{}
}

// CircuitCount returns the number of active circuits (full + residual).
func (f *Fabric) CircuitCount() int { return f.circuits }

// Darkened sizes what a change (a repair's, against this fabric's
// intent) takes dark while it runs, per pair: the wavelength slots of the
// pair's circuits it switches — a cross-connect of the circuit's path,
// which carries every slot — or whose transceiver at either end it drains
// or retunes, as a share of the pair's slots (core.Move.FracAffected).
// Pairs it leaves alone are not listed; the rest come in pair order.
func (f *Fabric) Darkened(ch control.Change) []core.Move {
	switched := make(map[string]map[int]bool)
	for _, o := range ch.Switches {
		if switched[o.Device] == nil {
			switched[o.Device] = make(map[int]bool)
		}
		switched[o.Device][o.In] = true
	}
	xcvrs := make(map[string]map[int]bool)
	for _, ops := range [][]control.TransceiverOp{ch.Drain, ch.Retunes} {
		for _, o := range ops {
			if xcvrs[o.Device] == nil {
				xcvrs[o.Device] = make(map[int]bool)
			}
			xcvrs[o.Device][o.Idx] = true
		}
	}
	pairs := make([]hose.Pair, 0, len(f.full)+len(f.residual))
	for p := range f.full {
		pairs = append(pairs, p)
	}
	for p := range f.residual {
		if _, ok := f.full[p]; !ok {
			pairs = append(pairs, p)
		}
	}
	hose.SortPairs(pairs)
	var moves []core.Move
	for _, p := range pairs {
		dark, slots := 0, 0
		circuits := f.full[p]
		if c := f.residual[p]; c != nil {
			circuits = append(slices.Clip(circuits), c)
		}
		for _, c := range circuits {
			slots += c.live
			hit := false
			_ = f.hops(c, func(node, in, _ int) { hit = hit || switched[f.OSSName(node)][in] })
			if hit {
				dark += c.live
				continue
			}
			xa, xb := xcvrs[f.XcvrName(p.A)], xcvrs[f.XcvrName(p.B)]
			for slot := 0; slot < c.live; slot++ {
				if xa[c.xcvrA[slot]] || xb[c.xcvrB[slot]] {
					dark++
				}
			}
		}
		if dark > 0 {
			moves = append(moves, core.Move{Pair: p, FracAffected: float64(dark) / float64(slots)})
		}
	}
	return moves
}
