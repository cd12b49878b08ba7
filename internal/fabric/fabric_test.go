package fabric

import (
	"context"
	"slices"
	"testing"

	"iris/internal/geo"

	"iris/internal/control"
	"iris/internal/core"
	"iris/internal/fibermap"
	"iris/internal/hose"
	"iris/internal/traffic"
)

func toyDeployment(t *testing.T) (*core.Deployment, *fibermap.ToyRegion) {
	t.Helper()
	r := fibermap.Toy()
	dep, err := core.Plan(core.UniformRegion(r.Map, 10, 40), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return dep, r
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build(nil); err == nil {
		t.Error("expected error for nil deployment")
	}
}

func TestBuildLayout(t *testing.T) {
	dep, r := toyDeployment(t)
	f, err := Build(dep)
	if err != nil {
		t.Fatal(err)
	}
	// Hub A terminates L1, L2 (13 pairs each) and L5 (24 pairs).
	wantHubA := dep.Plan.Ducts[r.L1].TotalPairs() +
		dep.Plan.Ducts[r.L2].TotalPairs() +
		dep.Plan.Ducts[r.L5].TotalPairs()
	if got := f.ossSize[r.HubA]; got != wantHubA {
		t.Errorf("hub A OSS ports = %d, want %d", got, wantHubA)
	}
	// DC1: its access duct pairs + local ports (10 capacity + 3 peers).
	wantDC1 := dep.Plan.Ducts[r.L1].TotalPairs() + 10 + 3
	if got := f.ossSize[r.DC1]; got != wantDC1 {
		t.Errorf("DC1 OSS ports = %d, want %d", got, wantDC1)
	}
	// Port lookups are consistent and disjoint between ducts.
	p1, err := f.port(r.HubA, r.L1, 0)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := f.port(r.HubA, r.L2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p1 == p2 {
		t.Error("distinct ducts share a port")
	}
	if _, err := f.port(r.HubA, 99, 0); err == nil {
		t.Error("expected error for foreign duct")
	}
	if _, err := f.localPort(r.HubA, 0); err == nil {
		t.Error("expected error for local port on a hut")
	}
	if _, err := f.localPort(r.DC1, 13); err == nil {
		t.Error("expected error for out-of-range local index")
	}
}

func TestBuildDeterministic(t *testing.T) {
	dep, r := toyDeployment(t)
	f1, _ := Build(dep)
	f2, _ := Build(dep)
	for _, node := range []int{r.DC1, r.DC2, r.HubA, r.HubB} {
		if f1.ossSize[node] != f2.ossSize[node] {
			t.Fatalf("layout differs at node %d", node)
		}
	}
	a, _ := f1.port(r.HubB, r.L5, 3)
	b, _ := f2.port(r.HubB, r.L5, 3)
	if a != b {
		t.Fatal("port map differs across identical builds")
	}
}

func TestDevicesSizedFromPlan(t *testing.T) {
	dep, r := toyDeployment(t)
	f, _ := Build(dep)
	devs := f.Devices(0)
	// 6 OSSes (4 DCs + 2 hubs) + 4 transceiver banks; no amps in the toy.
	if len(devs) != 10 {
		t.Fatalf("devices = %d, want 10", len(devs))
	}
	if _, ok := devs[f.XcvrName(r.DC1)]; !ok {
		t.Error("missing DC1 transceiver bank")
	}
	if _, ok := devs[f.AmpName(r.HubA)]; ok {
		t.Error("unexpected amplifier device in the amp-free toy")
	}
}

func TestCompileTargetSimpleCircuit(t *testing.T) {
	dep, r := toyDeployment(t)
	f, _ := Build(dep)

	m := traffic.NewMatrix(dep.Region.Map.DCs())
	m.Set(hose.Pair{A: r.DC1, B: r.DC3}, 60) // 1 full fiber + 20 residual
	alloc, err := dep.Allocate(m)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := f.CompileTarget(alloc)
	if err != nil {
		t.Fatal(err)
	}
	// Two circuits (full + residual), each switched at 4 nodes.
	if got := len(ch.Switches); got != 8 {
		t.Errorf("switch ops = %d, want 8", got)
	}
	// 40 + 20 live wavelengths, tuned and enabled at both ends.
	if got := len(ch.Retunes); got != 2*(40+20) {
		t.Errorf("retunes = %d, want 120", got)
	}
	if got := len(ch.Undrain); got != 2*(40+20) {
		t.Errorf("undrains = %d, want 120", got)
	}
	if len(ch.Drain) != 0 {
		t.Errorf("unexpected drains on first establishment: %d", len(ch.Drain))
	}
	if f.CircuitCount() != 2 {
		t.Errorf("circuits = %d, want 2", f.CircuitCount())
	}
}

func TestCompileTargetIdempotent(t *testing.T) {
	dep, r := toyDeployment(t)
	f, _ := Build(dep)
	m := traffic.NewMatrix(dep.Region.Map.DCs())
	m.Set(hose.Pair{A: r.DC1, B: r.DC2}, 80)
	alloc, err := dep.Allocate(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.CompileTarget(alloc); err != nil {
		t.Fatal(err)
	}
	again, err := f.CompileTarget(alloc)
	if err != nil {
		t.Fatal(err)
	}
	if len(again.Switches)+len(again.Retunes)+len(again.Drain)+len(again.Undrain) != 0 {
		t.Errorf("repeated target compiled ops: %+v", again)
	}
}

func TestCompileTargetShrinkDrainsFirst(t *testing.T) {
	dep, r := toyDeployment(t)
	f, _ := Build(dep)
	m := traffic.NewMatrix(dep.Region.Map.DCs())
	p := hose.Pair{A: r.DC1, B: r.DC2}
	m.Set(p, 120) // 3 full fibers
	alloc, err := dep.Allocate(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.CompileTarget(alloc); err != nil {
		t.Fatal(err)
	}

	m.Set(p, 40) // shrink to 1 fiber
	alloc2, err := dep.Allocate(m)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := f.CompileTarget(alloc2)
	if err != nil {
		t.Fatal(err)
	}
	if len(ch.Drain) != 2*2*40 {
		t.Errorf("drains = %d, want 160 (two circuits × both ends × 40λ)", len(ch.Drain))
	}
	for _, op := range ch.Switches {
		if !op.Disconnect {
			t.Errorf("shrink compiled a connect: %+v", op)
		}
	}
	if f.CircuitCount() != 1 {
		t.Errorf("circuits = %d, want 1", f.CircuitCount())
	}
}

func TestCompileTargetReallocatesFreedFibers(t *testing.T) {
	// Fill a duct completely, then move the demand to another pair that
	// shares the duct: the compiler must tear down first so the fibers
	// can be reused in the same change.
	dep, r := toyDeployment(t)
	f, _ := Build(dep)
	m := traffic.NewMatrix(dep.Region.Map.DCs())
	p13 := hose.Pair{A: r.DC1, B: r.DC3}
	p14 := hose.Pair{A: r.DC1, B: r.DC4}
	m.Set(p13, 400) // all 10 of DC1's fibers over the central duct
	alloc, err := dep.Allocate(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.CompileTarget(alloc); err != nil {
		t.Fatal(err)
	}

	m.Set(p13, 0)
	m.Set(p14, 400)
	alloc2, err := dep.Allocate(m)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := f.CompileTarget(alloc2)
	if err != nil {
		t.Fatal(err)
	}
	disc, conn := 0, 0
	for _, op := range ch.Switches {
		if op.Disconnect {
			disc++
		} else {
			conn++
		}
	}
	if disc == 0 || conn == 0 {
		t.Fatalf("expected both disconnects (%d) and connects (%d)", disc, conn)
	}
	if f.CircuitCount() != 10 {
		t.Errorf("circuits = %d, want 10", f.CircuitCount())
	}
}

func TestEndToEndWithController(t *testing.T) {
	// The full loop: plan → fabric → emulated devices over TCP →
	// controller executes compiled changes → audit confirms intent.
	dep, r := toyDeployment(t)
	f, err := Build(dep)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := control.StartTestbed(f.Devices(0))
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()

	m := traffic.NewMatrix(dep.Region.Map.DCs())
	m.Set(hose.Pair{A: r.DC1, B: r.DC3}, 60)
	m.Set(hose.Pair{A: r.DC2, B: r.DC4}, 45)
	alloc, err := dep.Allocate(m)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := f.CompileTarget(alloc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Controller.Reconfigure(context.Background(), ch); err != nil {
		t.Fatal(err)
	}
	if err := tb.Controller.Audit(f.Expected()); err != nil {
		t.Fatalf("audit after setup: %v", err)
	}

	// Traffic shift: move DC2-DC4 down, DC1-DC3 up.
	m.Set(hose.Pair{A: r.DC1, B: r.DC3}, 130)
	m.Set(hose.Pair{A: r.DC2, B: r.DC4}, 10)
	alloc2, err := dep.Allocate(m)
	if err != nil {
		t.Fatal(err)
	}
	ch2, err := f.CompileTarget(alloc2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Controller.Reconfigure(context.Background(), ch2); err != nil {
		t.Fatal(err)
	}
	if err := tb.Controller.Audit(f.Expected()); err != nil {
		t.Fatalf("audit after shift: %v", err)
	}
}

func TestGeneratedRegionFabric(t *testing.T) {
	// Fabric compilation works on planned synthetic regions, including
	// paths with amplifiers and cut-throughs.
	m, err := fibermap.Spec{Seed: 4, DCs: 6}.Map()
	if err != nil {
		t.Fatal(err)
	}
	dep, err := core.Plan(core.UniformRegion(m, 8, 40), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	f, err := Build(dep)
	if err != nil {
		t.Fatal(err)
	}
	tm := traffic.NewMatrix(m.DCs())
	for _, p := range tm.Pairs() {
		tm.Set(p, 50)
	}
	alloc, err := dep.Allocate(tm)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := f.CompileTarget(alloc)
	if err != nil {
		t.Fatal(err)
	}
	if len(ch.Switches) == 0 {
		t.Fatal("no switch ops compiled")
	}
	// Every compiled port must be within its device's sized port count.
	sizes := make(map[string]int)
	for node, size := range f.ossSize {
		sizes[f.OSSName(node)] = size
	}
	for _, op := range ch.Switches {
		size := sizes[op.Device]
		if op.In >= size || op.Out >= size {
			t.Fatalf("op %+v outside device size %d", op, size)
		}
	}
}

func TestAmplifierLifecycle(t *testing.T) {
	// A region whose planned paths use an amplifier: the first circuit
	// through the amp site enables it, the last tears it down.
	m := &fibermap.Map{}
	dc0 := m.AddNode(fibermap.DC, geoPoint(0, 0), "")
	h1 := m.AddNode(fibermap.Hut, geoPoint(10, 0), "")
	h2 := m.AddNode(fibermap.Hut, geoPoint(60, 0), "")
	dc1 := m.AddNode(fibermap.DC, geoPoint(115, 0), "")
	m.AddDuct(dc0, h1, 10)
	m.AddDuct(h1, h2, 50)
	m.AddDuct(h2, dc1, 55)
	dep, err := core.Plan(core.Region{
		Map: m, Capacity: map[int]int{dc0: 4, dc1: 4}, Lambda: 40,
	}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if dep.Plan.TotalAmps() == 0 {
		t.Fatal("expected amplifiers on a 115 km path")
	}
	f, err := Build(dep)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := f.Devices(0)[f.AmpName(h2)]; !ok {
		t.Fatal("amp device missing from fabric")
	}

	mtx := traffic.NewMatrix(m.DCs())
	p := hose.Pair{A: dc0, B: dc1}
	mtx.Set(p, 80) // two circuits
	alloc, err := dep.Allocate(mtx)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := f.CompileTarget(alloc)
	if err != nil {
		t.Fatal(err)
	}
	enables := 0
	for _, op := range ch.Amps {
		if op.Enable {
			enables++
		}
	}
	if enables != 1 {
		t.Errorf("amp enables = %d, want exactly 1 for the shared site", enables)
	}

	// Shrinking to one circuit keeps the amp on; removing the last turns
	// it off.
	mtx.Set(p, 40)
	alloc2, _ := dep.Allocate(mtx)
	ch2, err := f.CompileTarget(alloc2)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range ch2.Amps {
		if !op.Enable {
			t.Errorf("amp disabled while a circuit still uses it: %+v", op)
		}
	}
	mtx.Set(p, 0)
	alloc3, _ := dep.Allocate(mtx)
	ch3, err := f.CompileTarget(alloc3)
	if err != nil {
		t.Fatal(err)
	}
	disables := 0
	for _, op := range ch3.Amps {
		if !op.Enable {
			disables++
		}
	}
	if disables != 1 {
		t.Errorf("amp disables = %d, want 1 when the last circuit leaves", disables)
	}

	// The full loop against live devices.
	f2, _ := Build(dep)
	tb, err := control.StartTestbed(f2.Devices(0))
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	chLive, err := f2.CompileTarget(alloc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Controller.Reconfigure(context.Background(), chLive); err != nil {
		t.Fatal(err)
	}
	if st := deviceState(t, tb.Controller, f2.AmpName(h2)); st["enabled"] != true {
		t.Errorf("amplifier state %v after reconfiguration, want enabled", st)
	}
}

func geoPoint(x, y float64) geo.Point { return geo.Point{X: x, Y: y} }

func TestCompileTargetResourceExhaustion(t *testing.T) {
	// A hand-crafted allocation beyond the DC's transceiver pool must be
	// rejected with resources rolled back, not panic or leak.
	dep, r := toyDeployment(t)
	f, _ := Build(dep)
	p := hose.Pair{A: r.DC1, B: r.DC2}
	over := core.Allocation{
		// 11 full fibers exceed DC1's 10-fiber transceiver pool.
		Fibers:   map[hose.Pair]int{p: 11},
		Residual: map[hose.Pair]int{},
	}
	if _, err := f.CompileTarget(over); err == nil {
		t.Fatal("expected resource exhaustion error")
	}
	// The fabric remains usable for a sane allocation afterwards.
	f2, _ := Build(dep)
	ok := core.Allocation{
		Fibers:   map[hose.Pair]int{p: 10},
		Residual: map[hose.Pair]int{},
	}
	if _, err := f2.CompileTarget(ok); err != nil {
		t.Fatalf("full-capacity allocation rejected: %v", err)
	}
	if f2.CircuitCount() != 10 {
		t.Errorf("circuits = %d, want 10", f2.CircuitCount())
	}
}

func TestCutThroughBypassesSwitch(t *testing.T) {
	// A cut-through on a failure-free path: the circuit's fiber passes the
	// bypassed huts unswitched, so the change cross-connects nothing there
	// and the devices still match intent afterwards.
	rig, err := BringUp(BringUpConfig{Seed: 5, DCs: 20, DCCapacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer rig.Close()
	var bypassing []hose.Pair
	for p, info := range rig.Dep.Plan.Paths {
		if len(info.Bypassed) > 0 {
			bypassing = append(bypassing, p)
		}
	}
	if len(bypassing) == 0 {
		t.Fatal("no planned path bypasses a switch; the region does not cover cut-throughs")
	}
	hose.SortPairs(bypassing)
	p := bypassing[0]
	path := rig.Dep.Plan.Paths[p]

	m := traffic.NewMatrix(rig.Dep.Region.Map.DCs())
	m.Set(p, 80) // two full fibers, no residual
	alloc, err := rig.Dep.Allocate(m)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := rig.Fab.CompileTarget(alloc)
	if err != nil {
		t.Fatal(err)
	}
	ops := make(map[string]int)
	for _, op := range ch.Switches {
		ops[op.Device]++
	}
	for _, node := range path.Nodes {
		want := 2 // one cross-connect per circuit
		if slices.Contains(path.Bypassed, node) {
			want = 0
		}
		if got := ops[rig.Fab.OSSName(node)]; got != want {
			t.Errorf("pair %v, node %d (bypassed %v): %d cross-connects, want %d", p, node, path.Bypassed, got, want)
		}
	}
	if len(ch.Switches) != 2*(len(path.Nodes)-len(path.Bypassed)) {
		t.Errorf("%d cross-connects for two circuits over %d switched nodes", len(ch.Switches), len(path.Nodes)-len(path.Bypassed))
	}
	if _, err := rig.Testbed.Controller.Reconfigure(context.Background(), ch); err != nil {
		t.Fatal(err)
	}
	if err := rig.Testbed.Controller.Audit(rig.Fab.Expected()); err != nil {
		t.Fatalf("audit after the change: %v", err)
	}
	for _, node := range path.Bypassed {
		if _, ok := rig.Testbed.Devices[rig.Fab.OSSName(node)].(*control.OSS); ok {
			st := deviceState(t, rig.Testbed.Controller, rig.Fab.OSSName(node))
			if ins, _ := st["in"].([]int); len(ins) > 0 { // no circuit: an empty []any
				t.Errorf("bypassed node %d holds cross-connects %v", node, ins)
			}
		}
	}
}

// TestDarkenedCountsSlots: a switched cross-connect darkens every slot of
// its circuit, a drained or retuned transceiver its own slot, each as a
// share of its pair's slots; ops on nothing the circuits use darken none.
func TestDarkenedCountsSlots(t *testing.T) {
	dep, r := toyDeployment(t)
	f, _ := Build(dep)
	m := traffic.NewMatrix(dep.Region.Map.DCs())
	p := hose.Pair{A: r.DC1, B: r.DC3}
	m.Set(p, 60) // one full circuit (40 slots) and a residual one (20)
	alloc, err := dep.Allocate(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.CompileTarget(alloc); err != nil {
		t.Fatal(err)
	}
	full, res := f.full[p.Canonical()][0], f.residual[p.Canonical()]
	var hop control.OSSOp
	_ = f.hops(full, func(node, in, _ int) { hop = control.OSSOp{Device: f.OSSName(node), In: in} })
	xa := func(c *circuit, slot int) control.TransceiverOp {
		return control.TransceiverOp{Device: f.XcvrName(c.pair.A), Idx: c.xcvrA[slot]}
	}
	for _, tc := range []struct {
		name string
		ch   control.Change
		frac float64
	}{
		{"switched", control.Change{Switches: []control.OSSOp{hop}}, 40.0 / 60},
		{"drained and retuned", control.Change{Drain: []control.TransceiverOp{xa(res, 0)}, Retunes: []control.TransceiverOp{xa(res, 1), xa(full, 2)}}, 3.0 / 60},
		{"undrained only", control.Change{Undrain: []control.TransceiverOp{xa(res, 0)}}, 0},
		{"unused port", control.Change{Switches: []control.OSSOp{{Device: hop.Device, In: 9999, Disconnect: true}}}, 0},
	} {
		got := f.Darkened(tc.ch)
		if tc.frac == 0 {
			if len(got) != 0 {
				t.Errorf("%s: darkened %+v, want nothing", tc.name, got)
			}
			continue
		}
		if len(got) != 1 || got[0].Pair != p.Canonical() || got[0].FracAffected != tc.frac {
			t.Errorf("%s: darkened %+v, want %v of pair %v", tc.name, got, tc.frac, p.Canonical())
		}
	}
}
