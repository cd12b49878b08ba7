package latency

import "iris/internal/geo"

// TokyoExample reproduces the geometry behind Fig. 2 of the paper: a
// region whose two hubs sit south of two nearby DCs, so the DC-hub-DC
// fiber path is several times longer than a direct DC-DC connection.
//
// The figures are the paper's: DC-hub fiber runs of 53–60 km give a
// worst-case 1.2 ms DC-DC round trip through a hub, while the 19 km direct
// fiber run would take 0.2 ms — a 6× reduction.
type TokyoExample struct {
	DC1, DC2   geo.Point
	Hub1, Hub2 geo.Point
	// DirectKM is the direct DC-DC fiber distance and ViaHubKM the
	// shortest DC-hub-DC fiber distance.
	DirectKM, ViaHubKM float64
}

// Tokyo returns the example. Coordinates place the DCs ~9.5 km apart in
// the city's north and the hubs ~27 km south, so that with the 2× geo-to-
// fiber rule the distances match the paper's fiber measurements.
func Tokyo() TokyoExample {
	e := TokyoExample{
		DC1:  geo.Point{X: -4.75, Y: 14},
		DC2:  geo.Point{X: 4.75, Y: 14},
		Hub1: geo.Point{X: -2, Y: -13},
		Hub2: geo.Point{X: 2, Y: -13},
	}
	e.DirectKM = e.DC1.Dist(e.DC2) * geoToFiberFactor
	via1 := (e.DC1.Dist(e.Hub1) + e.Hub1.Dist(e.DC2)) * geoToFiberFactor
	via2 := (e.DC1.Dist(e.Hub2) + e.Hub2.Dist(e.DC2)) * geoToFiberFactor
	e.ViaHubKM = via1
	if via2 < via1 {
		e.ViaHubKM = via2
	}
	return e
}

// DirectRTTms returns the round-trip latency of the direct connection.
func (e TokyoExample) DirectRTTms() float64 { return rttMS(e.DirectKM) }

// ViaHubRTTms returns the round-trip latency through the better hub.
func (e TokyoExample) ViaHubRTTms() float64 { return rttMS(e.ViaHubKM) }

// Reduction returns the latency reduction factor of going direct.
func (e TokyoExample) Reduction() float64 { return e.ViaHubRTTms() / e.DirectRTTms() }
