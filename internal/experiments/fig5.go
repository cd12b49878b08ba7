package experiments

import (
	"fmt"
	"strings"

	"iris/internal/fibermap"
	"iris/internal/siting"
)

// Fig5Config parameterises the service-area maps.
type Fig5Config struct {
	Seed  int64
	DCs   int
	Width int // characters across
}

// DefaultFig5 matches the paper's visual comparison.
func DefaultFig5() Fig5Config { return Fig5Config{Seed: 2, DCs: 4, Width: 72} }

// Fig5 renders the paper's Fig. 5 comparison on one synthetic region: the
// same region with hubs placed near each other (top row of the paper's
// figure, 4–7 km) and far apart (bottom row, 20–24 km). The distributed
// area ('+' plus '#') is identical in both; the centralized area ('#')
// shrinks when the hubs spread out.
func Fig5(cfg Fig5Config) (nearMap, farMap string, err error) {
	m, err := fibermap.Placed(cfg.Seed, cfg.Seed+50, cfg.DCs)
	if err != nil {
		return "", "", err
	}
	dcs := m.DCs()
	a := siting.DefaultAnalysis(m)
	a.GridCellKM = 4

	near1, near2 := fibermap.ChooseHubs(m, 5)
	far1, far2 := fibermap.ChooseHubs(m, 22)
	return a.Render(near1, near2, dcs, cfg.Width),
		a.Render(far1, far2, dcs, cfg.Width), nil
}

// FormatFig5 lays out the two maps with captions.
func FormatFig5(nearMap, farMap string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 5 — siting flexibility maps (same region, same DCs)\n\n")
	fmt.Fprintf(&b, "hubs close together (4-7 km):\n%s\n", nearMap)
	fmt.Fprintf(&b, "hubs far apart (20-24 km):\n%s", farMap)
	fmt.Fprintf(&b, "\nthe '+' region is reachable only under the distributed model;\n")
	fmt.Fprintf(&b, "spreading the hubs shrinks the centralized '#' region (§2.2's trade-off)\n")
	return b.String()
}
