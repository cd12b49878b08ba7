package cost

import (
	"math"
	"testing"

	"iris/internal/fibermap"
	"iris/internal/plan"
)

func toyPlan(t *testing.T) *plan.Plan {
	t.Helper()
	r := fibermap.Toy()
	caps := make(map[int]int)
	for _, dc := range r.Map.DCs() {
		caps[dc] = 10
	}
	pl, err := plan.New(plan.Input{Map: r.Map, Capacity: caps, Lambda: 40})
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

func TestDefaultCatalogRatios(t *testing.T) {
	c := Default()
	// §3.3's stated relativities.
	if c.FiberPair/c.DCITransceiver < 2.5 || c.FiberPair/c.DCITransceiver > 3.5 {
		t.Errorf("fiber/transceiver = %v, want ≈3", c.FiberPair/c.DCITransceiver)
	}
	if c.DCITransceiver/c.OSSPort < 5 || c.DCITransceiver/c.OSSPort > 15 {
		t.Errorf("transceiver/OSS = %v, want order of magnitude", c.DCITransceiver/c.OSSPort)
	}
	if c.OXCPort <= c.OSSPort {
		t.Error("OXC ports should cost more than OSS ports")
	}
	if c.DCITransceiver/c.ElectricalPort != 10 {
		t.Errorf("transceiver/electrical = %v, want 10", c.DCITransceiver/c.ElectricalPort)
	}
}

func TestWithSRPricedDCI(t *testing.T) {
	c := Default().WithSRPricedDCI()
	if c.DCITransceiver != c.SRTransceiver {
		t.Error("DCI transceiver not repriced")
	}
	if Default().DCITransceiver == c.DCITransceiver {
		t.Error("WithSRPricedDCI should not mutate the receiver copy semantics")
	}
}

func TestToyEPSBreakdown(t *testing.T) {
	b := EPS(toyPlan(t), Default())
	// §3.4: F_E = 60 fiber-pairs, T_E = 2·60·40 = 4800 transceivers.
	if b.FiberPairs != 60 {
		t.Errorf("fiber pairs = %d, want 60", b.FiberPairs)
	}
	if b.TransceiverCount() != 4800 {
		t.Errorf("transceivers = %d, want 4800", b.TransceiverCount())
	}
	// Of those, 1600 sit at DCs (4 DCs × 10 pairs × 40λ).
	if b.DCTransceivers != 1600 {
		t.Errorf("DC transceivers = %d, want 1600", b.DCTransceivers)
	}
	if b.InNetTransceivers != 3200 {
		t.Errorf("in-network transceivers = %d, want 3200", b.InNetTransceivers)
	}
	if b.Amplifiers != 0 || b.OSSPorts != 0 || b.OXCPorts != 0 {
		t.Errorf("EPS should have no optical gear: %+v", b)
	}
}

func TestToyIrisBreakdown(t *testing.T) {
	b := Iris(toyPlan(t), Default())
	// §3.4: T_O = 4·10·40 = 1600 transceivers, all at DCs.
	if b.DCTransceivers != 1600 || b.InNetTransceivers != 0 {
		t.Errorf("transceivers = %d/%d, want 1600/0", b.DCTransceivers, b.InNetTransceivers)
	}
	// 60 base + 16 residual fiber-pairs (paper's worked example counts 78
	// with a +2 discrepancy on the central duct; see DESIGN.md).
	if b.FiberPairs != 76 {
		t.Errorf("fiber pairs = %d, want 76", b.FiberPairs)
	}
	if b.OSSPorts != 4*76 {
		t.Errorf("OSS ports = %d, want %d", b.OSSPorts, 4*76)
	}
}

func TestToyCostRatioMatchesPaper(t *testing.T) {
	pl := toyPlan(t)
	c := Default()
	ratio := EPS(pl, c).Total() / Iris(pl, c).Total()
	// §3.4: "the electrical design costs 2.7× more than the optical one".
	if ratio < 2.5 || ratio > 2.9 {
		t.Errorf("EPS/Iris = %.2f, want ≈2.7", ratio)
	}
}

func TestHybridBreakdown(t *testing.T) {
	pl := toyPlan(t)
	c := Default()
	iris := Iris(pl, c)
	hybrid := Hybrid(pl, c)
	if hybrid.FiberPairs >= iris.FiberPairs {
		t.Errorf("hybrid fiber %d should undercut iris %d", hybrid.FiberPairs, iris.FiberPairs)
	}
	if hybrid.OXCPorts == 0 {
		t.Error("hybrid should deploy OXC ports")
	}
	// Appendix B: savings exist but are small; the two designs stay close.
	ratio := hybrid.Total() / iris.Total()
	if ratio < 0.9 || ratio > 1.0 {
		t.Errorf("hybrid/iris = %.3f, want within [0.9, 1.0]", ratio)
	}
}

func TestInNetworkAccounting(t *testing.T) {
	pl := toyPlan(t)
	c := Default()
	eps := EPS(pl, c)
	iris := Iris(pl, c)

	if got := eps.DCPortCount(); got != 1600 {
		t.Errorf("EPS DC ports = %d, want 1600", got)
	}
	if got := eps.InNetworkPortCount(); got != 3200 {
		t.Errorf("EPS in-network ports = %d, want 3200", got)
	}
	if got := iris.InNetworkPortCount(); got != 4*76 {
		t.Errorf("Iris in-network ports = %d, want %d", got, 4*76)
	}
	// Fig. 12c headline: EPS needs many times more in-network ports.
	epsRatio := float64(eps.InNetworkPortCount()) / float64(eps.DCPortCount())
	irisRatio := float64(iris.InNetworkPortCount()) / float64(iris.DCPortCount())
	if epsRatio <= irisRatio {
		t.Errorf("EPS ratio %.2f should exceed Iris ratio %.2f", epsRatio, irisRatio)
	}
	// In-network cost excludes only the DC transceivers and their ports.
	wantInNet := eps.Total() - 1600*(c.DCITransceiver+c.ElectricalPort)
	if math.Abs(eps.InNetworkCost()-wantInNet) > 1e-6 {
		t.Errorf("InNetworkCost = %v, want %v", eps.InNetworkCost(), wantInNet)
	}
}

func TestPortModelCounts(t *testing.T) {
	// §2.4 with N=16: centralized needs 2·N·P ports, G groups (G+1)·N·P,
	// fully distributed N²·P.
	const n, p = 16, 10
	centralized := PortModel{N: n, P: p, G: 1}
	if got := centralized.TotalPorts(); got != 2*n*p {
		t.Errorf("centralized ports = %d, want %d", got, 2*n*p)
	}
	grouped := PortModel{N: n, P: p, G: 4}
	if got := grouped.TotalPorts(); got != 5*n*p {
		t.Errorf("4-group ports = %d, want %d", got, 5*n*p)
	}
	distributed := PortModel{N: n, P: p, G: n}
	if got := distributed.TotalPorts(); got != n*n*p {
		t.Errorf("distributed ports = %d, want %d", got, n*n*p)
	}
	if got := distributed.intraGroupPorts(); got != 0 {
		t.Errorf("distributed intra-group ports = %d, want 0", got)
	}
	for _, g := range []int{1, 2, 4, 8} {
		pm := PortModel{N: n, P: p, G: g}
		if pm.intraGroupPorts() != 2*n*p {
			t.Errorf("G=%d intra ports = %d, want %d", g, pm.intraGroupPorts(), 2*n*p)
		}
		if pm.intraGroupPorts()+pm.interGroupPorts() != pm.TotalPorts() {
			t.Errorf("G=%d port split inconsistent", g)
		}
		if pm.dcPorts()+pm.hubPorts() != pm.TotalPorts() {
			t.Errorf("G=%d DC/hub split inconsistent", g)
		}
	}
}

func TestFig7Shape(t *testing.T) {
	// Fig. 7 headline: a fully meshed distributed electrical topology
	// costs roughly 7× the centralized one; the optical design stays far
	// cheaper as the topology becomes distributed; the SR variant helps
	// but does not close the gap.
	const n, p = 16, 10
	c := Default()
	central := PortModel{N: n, P: p, G: 1}
	mesh := PortModel{N: n, P: p, G: n}

	ratio := mesh.ElectricalCost(c, false) / central.ElectricalCost(c, false)
	if ratio < 6 || ratio > 9 {
		t.Errorf("distributed/centralized electrical = %.1f, want ≈7-8", ratio)
	}

	// Electrical cost grows monotonically with G.
	prev := -1.0
	for _, g := range []int{1, 2, 4, 8, 16} {
		pm := PortModel{N: n, P: p, G: g}
		tot := pm.ElectricalCost(c, false)
		if tot <= prev {
			t.Errorf("electrical cost not increasing at G=%d", g)
		}
		prev = tot

		sr := pm.ElectricalCost(c, true)
		if sr > tot {
			t.Errorf("SR variant costs more at G=%d", g)
		}
		opt := pm.OpticalCost(c)
		if opt >= tot {
			t.Errorf("optical should undercut plain electrical at G=%d: %v vs %v", g, opt, tot)
		}
		// Beyond the degenerate G=1 case (where the SR model prices every
		// port short-reach), optics undercut even the optimistic SR bars.
		if g >= 2 && opt >= sr {
			t.Errorf("optical should undercut SR electrical at G=%d: %v vs %v", g, opt, sr)
		}
	}

	// The optical design keeps distributed topologies near centralized
	// electrical cost (the paper's "lowers the barrier" claim).
	optMesh := mesh.OpticalCost(c)
	if optMesh > 2*central.ElectricalCost(c, false) {
		t.Errorf("optical mesh %.0f should be within ~2× centralized electrical %.0f",
			optMesh, central.ElectricalCost(c, false))
	}
}
