package plan

import (
	"strings"
	"testing"

	"iris/internal/fibermap"
	"iris/internal/geo"
	"iris/internal/graph"
	"iris/internal/hose"
	"iris/internal/optics"
)

// toyInput returns the §3.4 example: 4 DCs of 10 fiber-pairs each, λ=40.
func toyInput(maxFailures int) (Input, *fibermap.ToyRegion) {
	r := fibermap.Toy()
	caps := make(map[int]int)
	for _, dc := range r.Map.DCs() {
		caps[dc] = 10
	}
	return Input{Map: r.Map, Capacity: caps, Lambda: 40, MaxFailures: maxFailures}, r
}

func TestValidateInput(t *testing.T) {
	good, _ := toyInput(0)
	if err := good.validate(); err != nil {
		t.Fatalf("valid input rejected: %v", err)
	}

	t.Run("nil map", func(t *testing.T) {
		if err := (Input{}).validate(); err == nil {
			t.Error("expected error")
		}
	})
	t.Run("missing capacity", func(t *testing.T) {
		in, r := toyInput(0)
		delete(in.Capacity, r.DC3)
		if err := in.validate(); err == nil {
			t.Error("expected error")
		}
	})
	t.Run("zero capacity", func(t *testing.T) {
		in, r := toyInput(0)
		in.Capacity[r.DC3] = 0
		if err := in.validate(); err == nil {
			t.Error("expected error")
		}
	})
	t.Run("bad lambda", func(t *testing.T) {
		in, _ := toyInput(0)
		in.Lambda = 0
		if err := in.validate(); err == nil {
			t.Error("expected error")
		}
	})
	t.Run("negative failures", func(t *testing.T) {
		in, _ := toyInput(-1)
		if err := in.validate(); err == nil {
			t.Error("expected error")
		}
	})
	t.Run("too few DCs", func(t *testing.T) {
		m := &fibermap.Map{}
		a := m.AddNode(fibermap.DC, geo.Point{}, "")
		b := m.AddNode(fibermap.Hut, geo.Point{X: 1}, "")
		m.AddDuct(a, b, 5)
		in := Input{Map: m, Capacity: map[int]int{a: 1}, Lambda: 40}
		if err := in.validate(); err == nil {
			t.Error("expected error")
		}
	})
}

func TestToyPlanMatchesPaperSection34(t *testing.T) {
	in, r := toyInput(0)
	pl, err := New(in)
	if err != nil {
		t.Fatal(err)
	}

	// Base (Algorithm 1) capacities: 10 pairs on each access duct, 20 on
	// the central duct — exactly the electrical design's fiber counts.
	wantBase := map[int]int{r.L1: 10, r.L2: 10, r.L3: 10, r.L4: 10, r.L5: 20}
	for duct, want := range wantBase {
		du, ok := pl.Ducts[duct]
		if !ok {
			t.Fatalf("duct %d unprovisioned", duct)
		}
		if du.BasePairs != want {
			t.Errorf("duct %d base pairs = %d, want %d", duct, du.BasePairs, want)
		}
	}
	if got := pl.BaseFiberPairs(); got != 60 {
		t.Errorf("BaseFiberPairs = %d, want 60 (paper's F_E)", got)
	}

	// Residual (§4.3): one pair per DC pair along its shortest path —
	// 3 on each access duct, 4 crossing the central duct. The paper's
	// worked example quotes 6 on L5; see DESIGN.md for the 2-pair delta.
	wantResidual := map[int]int{r.L1: 3, r.L2: 3, r.L3: 3, r.L4: 3, r.L5: 4}
	for duct, want := range wantResidual {
		if got := pl.Ducts[duct].ResidualPairs; got != want {
			t.Errorf("duct %d residual pairs = %d, want %d", duct, got, want)
		}
	}
	if got := pl.TotalFiberPairs(); got != 76 {
		t.Errorf("TotalFiberPairs = %d, want 76", got)
	}

	// Short toy distances need no amplifiers or cut-throughs.
	if pl.TotalAmps() != 0 {
		t.Errorf("TotalAmps = %d, want 0", pl.TotalAmps())
	}
	if len(pl.Cuts) != 0 {
		t.Errorf("Cuts = %v, want none", pl.Cuts)
	}
	if len(pl.Viol) != 0 {
		t.Errorf("violations: %v", pl.Viol)
	}
	if len(pl.SLA) != 0 {
		t.Errorf("SLA violations: %v", pl.SLA)
	}

	// All 6 pairs routed; both huts used.
	if len(pl.Paths) != 6 {
		t.Errorf("paths = %d, want 6", len(pl.Paths))
	}
	if huts := pl.UsedHuts(); len(huts) != 2 {
		t.Errorf("UsedHuts = %v, want both", huts)
	}
	if pl.NScena != 1 {
		t.Errorf("NScena = %d, want 1", pl.NScena)
	}
}

// elementsFor renders a routed path as the ordered optical element chain
// the physical layer will see (Fig. 11): a terminal amplifier and OSS at
// the sending DC, an OSS at every non-bypassed intermediate node (plus a
// loopback amplifier traversal where the path is amplified), and an OSS
// and terminal amplifier at the receiving DC.
func elementsFor(pr *pathRec) []optics.Element {
	el := []optics.Element{{Kind: optics.Amp}, {Kind: optics.OSS}}
	for i, e := range pr.Ducts {
		el = append(el, optics.Element{Kind: optics.Span, LengthKM: e.W})
		if i == len(pr.Ducts)-1 {
			break
		}
		interior := pr.Nodes[i+1]
		if pr.bypassed(interior) {
			continue
		}
		el = append(el, optics.Element{Kind: optics.OSS})
		if pr.ampNode == interior {
			// Loopback amplification: into the OSS, through the amp, and
			// back out — a second OSS traversal (hut H1 in Fig. 11).
			el = append(el, optics.Element{Kind: optics.Amp}, optics.Element{Kind: optics.OSS})
		}
	}
	el = append(el, optics.Element{Kind: optics.OSS}, optics.Element{Kind: optics.Amp})
	return el
}

// evaluatePath re-evaluates the stored failure-free path of a DC pair
// against the optical constraints, reconstructing its element chain from
// the recorded amplifier and cut-through assignments.
func evaluatePath(pl *Plan, pair hose.Pair) (optics.PathEval, bool) {
	info, ok := pl.Paths[pair.Canonical()]
	if !ok {
		return optics.PathEval{}, false
	}
	pr := &pathRec{
		Route:   &Route{Pair: info.Pair, Nodes: info.Nodes, TotalKM: info.TotalKM},
		ampNode: -1,
		bypass:  info.Bypassed,
	}
	for _, id := range info.Ducts {
		d := pl.Input.Map.Ducts[id]
		pr.Ducts = append(pr.Ducts, graph.Edge{ID: d.ID, U: d.A, V: d.B, W: d.FiberKM})
	}
	if len(info.AmpNodes) > 0 {
		pr.ampNode = info.AmpNodes[0]
	}
	return optics.Evaluate(elementsFor(pr)), true
}

func TestToyPlanPathsAreFeasible(t *testing.T) {
	in, r := toyInput(0)
	pl, err := New(in)
	if err != nil {
		t.Fatal(err)
	}
	for pair := range pl.Paths {
		ev, ok := evaluatePath(pl, pair)
		if !ok {
			t.Fatalf("no evaluation for %v", pair)
		}
		if !ev.Feasible() {
			t.Errorf("pair %v infeasible: %v", pair, ev.Violations)
		}
	}
	// The cross-hub path must traverse both hubs.
	info := pl.Paths[hose.Pair{A: r.DC1, B: r.DC3}]
	if info == nil || len(info.Nodes) != 4 {
		t.Fatalf("DC1-DC3 path = %+v", info)
	}
}

func TestEvaluatePathUnknownPair(t *testing.T) {
	in, _ := toyInput(0)
	pl, err := New(in)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := evaluatePath(pl, hose.Pair{A: 0, B: 0}); ok {
		t.Error("expected ok=false for unknown pair")
	}
}

func TestToyPlanWithFailures(t *testing.T) {
	in, r := toyInput(2)
	pl, err := New(in)
	if err != nil {
		t.Fatal(err)
	}
	// 5 ducts, tolerance 2: 1 + 5 + 10 = 16 scenarios.
	if pl.NScena != 16 {
		t.Errorf("NScena = %d, want 16", pl.NScena)
	}
	// Cutting any access duct isolates its DC (single-homed toy), so the
	// base capacities cannot grow beyond the failure-free ones.
	if got := pl.BaseFiberPairs(); got != 60 {
		t.Errorf("BaseFiberPairs = %d, want 60", got)
	}
	_ = r
}

func TestAmplifierPlacement(t *testing.T) {
	// A 115 km line: DC0 -10- h1 -50- h2 -55- DC1. Without amplification
	// the 115 km segment violates TC1; only h2 splits it into ≤80 km
	// segments (60 | 55). Algorithm 2 must place min(cap) amplifiers there.
	m := &fibermap.Map{}
	dc0 := m.AddNode(fibermap.DC, geo.Point{X: 0}, "")
	h1 := m.AddNode(fibermap.Hut, geo.Point{X: 10}, "")
	h2 := m.AddNode(fibermap.Hut, geo.Point{X: 60}, "")
	dc1 := m.AddNode(fibermap.DC, geo.Point{X: 115}, "")
	m.AddDuct(dc0, h1, 10)
	m.AddDuct(h1, h2, 50)
	m.AddDuct(h2, dc1, 55)

	pl, err := New(Input{
		Map:      m,
		Capacity: map[int]int{dc0: 4, dc1: 6},
		Lambda:   40,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.Viol) != 0 {
		t.Fatalf("violations: %v", pl.Viol)
	}
	if got := pl.Amps[h2]; got != 4 {
		t.Errorf("amps at h2 = %d, want 4 (min capacity of the pair)", got)
	}
	if got := pl.Amps[h1]; got != 0 {
		t.Errorf("amps at h1 = %d, want 0", got)
	}
	ev, _ := evaluatePath(pl, hose.Pair{A: dc0, B: dc1})
	if !ev.Feasible() {
		t.Errorf("path infeasible after amplification: %v", ev.Violations)
	}
	if ev.Amps != 3 || ev.InlineAmps != 1 {
		t.Errorf("amps on path = %d (inline %d), want 3 (1)", ev.Amps, ev.InlineAmps)
	}
	info := pl.Paths[hose.Pair{A: dc0, B: dc1}]
	if len(info.AmpNodes) != 1 || info.AmpNodes[0] != h2 {
		t.Errorf("AmpNodes = %v, want [h2=%d]", info.AmpNodes, h2)
	}
}

// A pair no amplifier site can clear is reported once in a scenario,
// however many greedy iterations the scenario's other pairs take. DCs A,
// B, C and huts X, H: A -70- X -70- H -70- B and C -30- H. A-B (210 km)
// and A-C (170 km) keep a segment over 80 km wherever their one amplifier
// goes; B-C (100 km) is cleared at H, which costs the loop an iteration.
func TestUnfixableSpanReportedOncePerScenario(t *testing.T) {
	m := &fibermap.Map{}
	hH := m.AddNode(fibermap.Hut, geo.Point{X: 140}, "")
	hX := m.AddNode(fibermap.Hut, geo.Point{X: 70}, "")
	a := m.AddNode(fibermap.DC, geo.Point{X: 0}, "")
	b := m.AddNode(fibermap.DC, geo.Point{X: 210}, "")
	c := m.AddNode(fibermap.DC, geo.Point{X: 140, Y: 30}, "")
	m.AddDuct(a, hX, 70)
	m.AddDuct(hX, hH, 70)
	m.AddDuct(hH, b, 70)
	m.AddDuct(c, hH, 30)

	pl, err := New(Input{Map: m, Capacity: map[int]int{a: 2, b: 2, c: 2}, Lambda: 40})
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.Viol) != 2 || !strings.Contains(pl.Viol[0], "no amplifier location") ||
		!strings.Contains(pl.Viol[1], "no amplifier location") || pl.Viol[0] == pl.Viol[1] {
		t.Errorf("violations = %q, want one \"no amplifier location\" line for each of A-B and A-C", pl.Viol)
	}
	if got := pl.Amps[hH]; got != 2 {
		t.Errorf("amps at H = %d, want 2 for B-C", got)
	}
}

func TestCutThroughPlacement(t *testing.T) {
	// A chain with 6 interior huts: 2 terminal + 6 interior OSS = 8 > 6
	// traversals, violating TC4. Cut-throughs must bypass at least two
	// interior switches.
	m := &fibermap.Map{}
	dc0 := m.AddNode(fibermap.DC, geo.Point{X: 0}, "")
	prev := dc0
	var interior []int
	for i := 1; i <= 6; i++ {
		h := m.AddNode(fibermap.Hut, geo.Point{X: float64(10 * i)}, "")
		m.AddDuct(prev, h, 10)
		interior = append(interior, h)
		prev = h
	}
	dc1 := m.AddNode(fibermap.DC, geo.Point{X: 70}, "")
	m.AddDuct(prev, dc1, 10)

	pl, err := New(Input{
		Map:      m,
		Capacity: map[int]int{dc0: 8, dc1: 8},
		Lambda:   40,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.Viol) != 0 {
		t.Fatalf("violations: %v", pl.Viol)
	}
	if len(pl.Cuts) == 0 {
		t.Fatal("expected at least one cut-through")
	}
	ev, _ := evaluatePath(pl, hose.Pair{A: dc0, B: dc1})
	if !ev.Feasible() {
		t.Errorf("path infeasible: %v", ev.Violations)
	}
	if ev.OSSCount > optics.MaxOSSPerPath {
		t.Errorf("OSS count = %d, exceeds %d", ev.OSSCount, optics.MaxOSSPerPath)
	}
	// Cut-through fiber is leased in the ducts it traverses.
	total := 0
	for _, ct := range pl.Cuts {
		if ct.Pairs <= 0 {
			t.Errorf("cut-through with no fiber: %+v", ct)
		}
		total += ct.Pairs * len(ct.Ducts)
	}
	sum := 0
	for _, du := range pl.Ducts {
		sum += du.CutThroughPairs
	}
	if sum != total {
		t.Errorf("per-duct cut-through fiber %d != per-link accounting %d", sum, total)
	}
	_ = interior
}

func TestLongDuctsExcluded(t *testing.T) {
	// A duct longer than the 80 km span limit cannot be used even though
	// it is the direct route; the plan must route around it.
	m := &fibermap.Map{}
	dc0 := m.AddNode(fibermap.DC, geo.Point{X: 0}, "")
	dc1 := m.AddNode(fibermap.DC, geo.Point{X: 90}, "")
	h := m.AddNode(fibermap.Hut, geo.Point{X: 45, Y: 10}, "")
	long := m.AddDuct(dc0, dc1, 90) // excluded: > 80 km
	m.AddDuct(dc0, h, 50)
	m.AddDuct(h, dc1, 50)

	pl, err := New(Input{Map: m, Capacity: map[int]int{dc0: 2, dc1: 2}, Lambda: 40})
	if err != nil {
		t.Fatal(err)
	}
	if _, used := pl.Ducts[long]; used {
		t.Error("over-length duct must not be provisioned")
	}
	info := pl.Paths[hose.Pair{A: dc0, B: dc1}]
	if info.TotalKM != 100 {
		t.Errorf("path length = %v, want 100 via the hut", info.TotalKM)
	}
}

func TestDisconnectedDCsRejected(t *testing.T) {
	m := &fibermap.Map{}
	dc0 := m.AddNode(fibermap.DC, geo.Point{X: 0}, "")
	dc1 := m.AddNode(fibermap.DC, geo.Point{X: 200}, "")
	h := m.AddNode(fibermap.Hut, geo.Point{X: 100}, "")
	// Connect them only through ducts that exceed the span limit: the
	// map validates as connected, but no usable topology exists.
	m.AddDuct(dc0, h, 85)
	m.AddDuct(h, dc1, 85)
	_, err := New(Input{Map: m, Capacity: map[int]int{dc0: 1, dc1: 1}, Lambda: 40})
	if err == nil || !strings.Contains(err.Error(), "not connected") {
		t.Errorf("err = %v, want not-connected", err)
	}
}

func TestHoseProvisioningAvoidsDoubleCounting(t *testing.T) {
	// Star: three DCs on one hub. The hub-adjacent duct of DC0 carries
	// pairs (0,1) and (0,2); naive provisioning would give
	// min(4,9)+min(4,9)=8 pairs, the hose optimum is 4.
	m := &fibermap.Map{}
	h := m.AddNode(fibermap.Hut, geo.Point{}, "")
	dc0 := m.AddNode(fibermap.DC, geo.Point{X: 10}, "")
	dc1 := m.AddNode(fibermap.DC, geo.Point{Y: 10}, "")
	dc2 := m.AddNode(fibermap.DC, geo.Point{X: -10}, "")
	d0 := m.AddDuct(dc0, h, 10)
	m.AddDuct(dc1, h, 10)
	m.AddDuct(dc2, h, 10)

	pl, err := New(Input{
		Map:      m,
		Capacity: map[int]int{dc0: 4, dc1: 9, dc2: 9},
		Lambda:   40,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := pl.Ducts[d0].BasePairs; got != 4 {
		t.Errorf("DC0 access duct base pairs = %d, want 4 (hose bound)", got)
	}
}

func TestFailureScenarioRaisesCapacity(t *testing.T) {
	// Two parallel routes between DC pairs; cutting one must push all the
	// load to the other, raising its provisioned capacity.
	m := &fibermap.Map{}
	dc0 := m.AddNode(fibermap.DC, geo.Point{X: 0}, "")
	dc1 := m.AddNode(fibermap.DC, geo.Point{X: 40}, "")
	hTop := m.AddNode(fibermap.Hut, geo.Point{X: 20, Y: 5}, "")
	hBot := m.AddNode(fibermap.Hut, geo.Point{X: 20, Y: -5}, "")
	top1 := m.AddDuct(dc0, hTop, 20)
	top2 := m.AddDuct(hTop, dc1, 20)
	bot1 := m.AddDuct(dc0, hBot, 21)
	bot2 := m.AddDuct(hBot, dc1, 21)

	noFail, err := New(Input{Map: m, Capacity: map[int]int{dc0: 6, dc1: 6}, Lambda: 40})
	if err != nil {
		t.Fatal(err)
	}
	// Without failures only the shorter top route is provisioned.
	if noFail.Ducts[top1] == nil || noFail.Ducts[top1].BasePairs != 6 {
		t.Fatalf("top route unprovisioned: %+v", noFail.Ducts[top1])
	}
	if noFail.Ducts[bot1] != nil {
		t.Errorf("bottom route provisioned without failures")
	}

	oneFail, err := New(Input{Map: m, Capacity: map[int]int{dc0: 6, dc1: 6}, Lambda: 40, MaxFailures: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, duct := range []int{top1, top2, bot1, bot2} {
		du := oneFail.Ducts[duct]
		if du == nil || du.BasePairs != 6 {
			t.Errorf("duct %d base pairs = %+v, want 6 under 1-failure tolerance", duct, du)
		}
	}
}

func TestPlannedRegionsSatisfyAllConstraints(t *testing.T) {
	// End-to-end property: on generated regions, every failure-free path
	// in the plan satisfies the full optical constraint set and capacity
	// covers every DC pair's minimum.
	for seed := int64(0); seed < 3; seed++ {
		m, err := fibermap.Spec{Seed: seed, DCs: 6}.Map()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		dcs := m.DCs()
		caps := make(map[int]int)
		for i, dc := range dcs {
			caps[dc] = 8 + 4*(i%3)
		}
		pl, err := New(Input{Map: m, Capacity: caps, Lambda: 40})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(pl.Viol) != 0 {
			t.Fatalf("seed %d: violations %v", seed, pl.Viol)
		}
		if len(pl.Paths) != len(dcs)*(len(dcs)-1)/2 {
			t.Errorf("seed %d: %d paths, want %d", seed, len(pl.Paths), len(dcs)*(len(dcs)-1)/2)
		}
		for pair, info := range pl.Paths {
			ev, _ := evaluatePath(pl, pair)
			if !ev.Feasible() {
				t.Errorf("seed %d pair %v: %v", seed, pair, ev.Violations)
			}
			// Every duct on the path is provisioned at least to the
			// pair's own worst-case demand — by switched base capacity,
			// or by a cut-through fiber where the pair bypasses switching.
			need := caps[pair.A]
			if caps[pair.B] < need {
				need = caps[pair.B]
			}
			cut := make(map[int]bool, len(info.CutDucts))
			for _, d := range info.CutDucts {
				cut[d] = true
			}
			for _, duct := range info.Ducts {
				du := pl.Ducts[duct]
				if du == nil {
					t.Errorf("seed %d pair %v duct %d unprovisioned", seed, pair, duct)
					continue
				}
				if cut[duct] {
					if du.CutThroughPairs < need {
						t.Errorf("seed %d pair %v duct %d cut-through under-provisioned: %d < %d",
							seed, pair, duct, du.CutThroughPairs, need)
					}
					continue
				}
				if du.BasePairs < need {
					t.Errorf("seed %d pair %v duct %d under-provisioned", seed, pair, duct)
				}
			}
		}
	}
}
