package fabric

import (
	"context"
	"math/rand"
	"testing"

	"iris/internal/control"
	"iris/internal/control/devicetest"
	"iris/internal/core"
	"iris/internal/traffic"
)

// benchRig brings up the benchmark's region (seed 1, 20 DCs of 10 fiber
// pairs × 40 wavelengths), every device wrapped into shims unless shims is
// nil.
func benchRig(t testing.TB, shims devicetest.Set) *Rig {
	t.Helper()
	cfg := BringUpConfig{Seed: 1, DCs: 20, DCCapacity: 10, Lambda: 40}
	if shims != nil {
		cfg.WrapDevice = func(name string, dev control.Device) control.Device { return shims.Wrap(name, dev) }
	}
	rig, err := BringUp(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rig.Close)
	return rig
}

// benchRegion is the 20-DC evaluation region (10 fiber-pairs × 40
// wavelengths per DC, instant switches) with two dense allocations drawn
// around one heavy-tailed base, so moving between them reconfigures most
// of the region's devices — the shape of a dense converge tick. shims,
// when not nil, gets every device wrapped.
func benchRegion(b testing.TB, shims devicetest.Set) (*Rig, [2]core.Allocation) {
	b.Helper()
	rig := benchRig(b, shims)
	dcs := rig.Dep.Region.Map.DCs()
	caps := rig.Dep.Region.HoseCaps()
	for dc := range caps {
		caps[dc] *= 0.7
	}
	rng := rand.New(rand.NewSource(1))
	base := traffic.HeavyTailed(rng, dcs, caps, 1)
	var allocs [2]core.Allocation
	for i := range allocs {
		m := traffic.NewMatrix(dcs)
		for _, p := range base.Pairs() {
			m.Set(p, base.Get(p)*(1+0.4*(2*rng.Float64()-1)))
		}
		m.ClampToHose(caps)
		var err error
		if allocs[i], err = rig.Dep.Allocate(m); err != nil {
			b.Fatal(err)
		}
	}
	return rig, allocs
}

// BenchmarkReconfigureDense measures Controller.Reconfigure alone on a
// dense change (CompileTarget runs off the clock): a couple of thousand
// device operations, one RPC per device per phase. A devicetest shim
// around every device logs the RPCs a change costs (device-rpcs/op; the
// log is taken off the clock and allocates nothing on it): 86 with
// the switch phase one round, 115 when it was two (disconnects, then
// connects); it fails above 94, the 86 plus 10 %. Its allocations —
// controller and devices, which share the process — are gated at 2 500 a
// change (2 281 when the gate was set; 2 621 with a goroutine and a channel
// hand-off per RPC). The CompileTarget it keeps off the clock allocates 684
// times a change: 673 when it walked the region itself rather than
// compiling DiffAlloc of the fabric's allocation, 778 when every circuit
// copied its planned path and built a map of the nodes it bypasses;
// Reconfigure's 2 281 did not move. With the counting shim a change
// allocates 2 144 times, 2 303 when the switch phase was two rounds. It
// is 1 833 now, although each device's last batch answers with its state:
// the decoder interns the protocol's keys, and a batch's lists are
// allocated once. (The closing audit those replies replace, a fetch of all
// 52 states after a dense change, allocated 894 times on its own.)
func BenchmarkReconfigureDense(b *testing.B) {
	shims := devicetest.Set{}
	rig, allocs := benchRegion(b, shims)
	compiled := 0
	compile := func() control.Change {
		ch, err := rig.Fab.CompileTarget(allocs[compiled%2])
		if err != nil {
			b.Fatal(err)
		}
		compiled++
		return ch
	}
	ops := 0
	reconfigure := func(ch control.Change) {
		rep, err := rig.Testbed.Controller.Reconfigure(context.Background(), ch)
		if err != nil {
			b.Fatal(err)
		}
		for _, ph := range rep.Phases {
			ops += ph.Ops
		}
	}
	// Compiled ahead, so that the gate counts Reconfigure alone; the first
	// change, from the dark region, is AllocsPerRun's warm-up call.
	const gated = 10
	var ahead []control.Change
	for i := 0; i <= gated; i++ {
		ahead = append(ahead, compile())
	}
	if allocs := testing.AllocsPerRun(gated, func() {
		reconfigure(ahead[0])
		ahead = ahead[1:]
	}); allocs > 2500 {
		b.Fatalf("a dense change allocates %.0f times, want at most 2500", allocs)
	}
	ops = 0
	shims.Take() // the gated changes' requests
	rpcs := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ch := compile()
		b.StartTimer()
		reconfigure(ch)
		b.StopTimer()
		// Off the clock: Take copies each log, and each shim logs the
		// next change into the buffer it keeps.
		for _, calls := range shims.Take() {
			rpcs += len(calls)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(ops)/float64(b.N), "device-ops/op")
	perChange := float64(rpcs) / float64(b.N)
	b.ReportMetric(perChange, "device-rpcs/op")
	if perChange > 94 {
		b.Fatalf("a dense change costs %.1f device RPCs, want at most 94", perChange)
	}
}

// BenchmarkAuditRegion measures a full audit of the region, what a probe
// round compares and what a repair pass fetches: one state fetch from each
// of the region's switches, banks and amplifiers, compared value by value
// against intent. (The audit that closes a write, a commit's or a
// repair's, fetches nothing: it reads the states the write's last batches
// answered with.) Its allocations —
// controller and devices, which share the process — are gated at 1 200 an
// audit (888 when the gate was set; 2 802 with per-element state replies;
// 685 since the decoder interns the protocol's keys).
func BenchmarkAuditRegion(b *testing.B) {
	rig, allocs := benchRegion(b, nil)
	ch, err := rig.Fab.CompileTarget(allocs[0])
	if err != nil {
		b.Fatal(err)
	}
	if _, err := rig.Testbed.Controller.Reconfigure(context.Background(), ch); err != nil {
		b.Fatal(err)
	}
	exp := rig.Fab.Expected()
	audit := func() {
		if err := rig.Testbed.Controller.Audit(exp); err != nil {
			b.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(20, audit); allocs > 1200 {
		b.Fatalf("an audit of the region allocates %.0f times, want at most 1200", allocs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		audit()
	}
	b.ReportMetric(float64(len(exp.Cross)+len(exp.Enabled)+len(exp.Amps)), "devices/op")
}

// BenchmarkCommitSparse measures what a sparse tick's commit costs the
// fabric: Clone of the installed fabric, Compile of a two-pair delta on
// it and the clone's Expected, the clone then installed. The two pairs
// move back and forth between the bench allocations. Clone copies the
// fabric's slices and pair maps, Compile copies only the pools and books
// the two pairs write (pools-copied/op, 11) and publishes the touched
// devices' books, and Expected reads what it published. Its allocations
// are gated at 170 a commit. When the gate was set Clone + Compile
// allocated 112 times; with Expected rebuilding the whole region's intent
// on every call the three allocated 292, and a deep Clone and
// CompileTarget's whole-region walk 1 117 without it.
func BenchmarkCommitSparse(b *testing.B) {
	rig, allocs := benchRegion(b, nil)
	fab := rig.Fab
	if _, err := fab.CompileTarget(allocs[0]); err != nil {
		b.Fatal(err)
	}
	fwd := core.DiffAlloc(allocs[0], allocs[1])[:2]
	back := make([]core.PairDelta, len(fwd))
	for i, d := range fwd {
		back[i] = core.PairDelta{A: d.A, B: d.B,
			OldFibers: d.NewFibers, NewFibers: d.OldFibers,
			OldResidual: d.NewResidual, NewResidual: d.OldResidual}
	}
	deltas := [2][]core.PairDelta{fwd, back}
	commits, copied := 0, 0
	commit := func() {
		clone := fab.Clone()
		if _, err := clone.Compile(deltas[commits%2]); err != nil {
			b.Fatal(err)
		}
		intent = clone.Expected()
		copied += poolsCopied(clone)
		fab = clone
		commits++
	}
	if allocs := testing.AllocsPerRun(20, commit); allocs > 170 {
		b.Fatalf("a sparse commit allocates %.0f times, want at most 170", allocs)
	}
	copied = 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		commit()
	}
	b.ReportMetric(float64(copied)/float64(b.N), "pools-copied/op")
}

// intent keeps BenchmarkCommitSparse's Expected live.
var intent control.Expected

// poolsCopied counts the pools a fabric copied since its Clone: the ones
// it owns.
func poolsCopied(f *Fabric) int {
	n := 0
	for _, ps := range [][]pool{f.ductFibers, f.localPorts, f.xcvrs} {
		for _, p := range ps {
			if p.owner == f.owner {
				n++
			}
		}
	}
	return n
}
