// Package latency implements the latency-inflation analysis of §2.1 of the
// paper (Figs. 2 and 3): how much longer DC-hub-DC paths are than direct
// DC-DC connectivity. Following the paper, DC-DC fiber distance is
// estimated from geographic distance using the industry rule of thumb of
// multiplying by two, since not all DC pairs have direct fiber routes.
package latency

import (
	"fmt"

	"iris/internal/geo"
)

// geoToFiberFactor is the industry rule of thumb the paper uses to
// estimate fiber distance from geographic distance.
const geoToFiberFactor = 2.0

// lightSpeedKMPerMS is the propagation speed in fiber (≈2/3 of c), used to
// convert fiber kilometres into round-trip milliseconds.
const lightSpeedKMPerMS = 200.0

// rttMS returns the round-trip propagation latency in milliseconds over
// the given one-way fiber distance.
func rttMS(fiberKM float64) float64 { return 2 * fiberKM / lightSpeedKMPerMS }

// inflation returns the latency inflation of routing one DC pair through
// the best of the given hubs instead of directly: (best DC-hub-DC fiber
// distance) / (direct DC-DC fiber distance). Both distances use the
// geographic rule of thumb. It returns an error when the two DCs are
// co-located (direct distance zero) or no hubs are given.
func inflation(a, b geo.Point, hubs []geo.Point) (float64, error) {
	if len(hubs) == 0 {
		return 0, fmt.Errorf("latency: no hubs")
	}
	direct := a.Dist(b) * geoToFiberFactor
	if direct == 0 {
		return 0, fmt.Errorf("latency: co-located DCs")
	}
	best := -1.0
	for _, h := range hubs {
		via := (a.Dist(h) + h.Dist(b)) * geoToFiberFactor
		if best < 0 || via < best {
			best = via
		}
	}
	return best / direct, nil
}

// Inflations returns the inflation of every DC pair in a region against
// its best hub. Pairs at zero distance are skipped.
func Inflations(dcs []geo.Point, hubs []geo.Point) []float64 {
	var out []float64
	for i := range dcs {
		for j := i + 1; j < len(dcs); j++ {
			infl, err := inflation(dcs[i], dcs[j], hubs)
			if err != nil {
				continue
			}
			out = append(out, infl)
		}
	}
	return out
}
