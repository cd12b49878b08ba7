package latency

import (
	"testing"

	"iris/internal/geo"
)

func TestTokyoExampleMatchesFig2(t *testing.T) {
	e := Tokyo()
	// Paper: direct DC-DC is 19 km of fiber → 0.2 ms RTT.
	if e.DirectKM < 17 || e.DirectKM > 21 {
		t.Errorf("direct fiber = %.1f km, want ≈19", e.DirectKM)
	}
	if rtt := e.DirectRTTms(); rtt < 0.15 || rtt > 0.25 {
		t.Errorf("direct RTT = %.2f ms, want ≈0.2", rtt)
	}
	// Paper: DC-hub runs of 53-60 km → worst DC-DC RTT 1.2 ms via hubs.
	hubLeg := e.DC1.Dist(e.Hub1) * geoToFiberFactor
	if hubLeg < 50 || hubLeg > 62 {
		t.Errorf("DC-hub fiber = %.1f km, want 53-60", hubLeg)
	}
	if rtt := e.ViaHubRTTms(); rtt < 1.0 || rtt > 1.3 {
		t.Errorf("via-hub RTT = %.2f ms, want ≈1.2", rtt)
	}
	// Paper: "a 6× latency reduction".
	if r := e.Reduction(); r < 5 || r > 7 {
		t.Errorf("reduction = %.1fx, want ≈6x", r)
	}
}

func TestTokyoConsistentWithInflation(t *testing.T) {
	// The example's reduction factor must equal the generic inflation
	// metric evaluated on the same geometry.
	e := Tokyo()
	infl, err := inflation(e.DC1, e.DC2, []geo.Point{e.Hub1, e.Hub2})
	if err != nil {
		t.Fatal(err)
	}
	if diff := infl - e.Reduction(); diff > 1e-9 || diff < -1e-9 {
		t.Errorf("Inflation %.4f != Reduction %.4f", infl, e.Reduction())
	}
}
