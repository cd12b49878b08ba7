package chaos

import (
	"reflect"
	"strconv"
	"strings"
	"testing"

	"iris/internal/fibermap"
)

// FuzzParseScenario checks that the compact scenario parser — the text
// /api/whatif and the daemon's /debug/chaos take — never panics on the
// toy map or on the 20-DC bench map (generated seed 1), and that a
// scenario it accepts is well formed: ducts ascending, unique and on the
// map; a hut or DC scenario on a node of that kind; a geo event with a
// finite centre and radius; and a cut that parses back from its own ducts
// to itself. Run with `go test -run '^$' -fuzz '^FuzzParseScenario$'
// ./internal/chaos` to explore beyond the seed corpus.
func FuzzParseScenario(f *testing.F) {
	gcfg := fibermap.DefaultGen()
	gcfg.Seed = 1
	bench := fibermap.Generate(gcfg)
	pcfg := fibermap.DefaultPlace()
	pcfg.Seed, pcfg.N = 1, 20
	if _, err := fibermap.PlaceDCs(bench, pcfg); err != nil {
		f.Fatal(err)
	}
	maps := []*fibermap.Map{fibermap.Toy().Map, bench}
	for _, s := range []string{"dc:0", "hut:2", "cut:3,1,1", "amp:0", "geo:1.5,-3,2", "geo:0,0,NaN", "cut:", "hut:-1", "dc:99", " cut:86 "} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		for _, m := range maps {
			sc, err := ParseScenario(m, s)
			if err != nil {
				continue // rejected input is fine; panics are not
			}
			for i, id := range sc.Ducts {
				if id < 0 || id >= len(m.Ducts) || (i > 0 && id <= sc.Ducts[i-1]) {
					t.Fatalf("%q: ducts %v are not ascending, unique and on the map's %d", s, sc.Ducts, len(m.Ducts))
				}
			}
			switch sc.Kind {
			case hutLoss, dcLoss:
				want := map[Kind]fibermap.NodeKind{hutLoss: fibermap.Hut, dcLoss: fibermap.DC}[sc.Kind]
				if sc.Node < 0 || sc.Node >= len(m.Nodes) || m.Nodes[sc.Node].Kind != want {
					t.Fatalf("%q: %s scenario on node %d", s, sc.Kind, sc.Node)
				}
			case geoEvent:
				if !finite(sc.Center.X) || !finite(sc.Center.Y) || !finite(sc.RadiusKM) || sc.RadiusKM <= 0 {
					t.Fatalf("%q: geo event at %v, radius %v", s, sc.Center, sc.RadiusKM)
				}
			case ductCut:
				ids := make([]string, len(sc.Ducts))
				for i, id := range sc.Ducts {
					ids[i] = strconv.Itoa(id)
				}
				again, err := ParseScenario(m, "cut:"+strings.Join(ids, ","))
				if err != nil || !reflect.DeepEqual(again, sc) {
					t.Fatalf("%q = %+v, but cut:%v parses to %+v, %v", s, sc, sc.Ducts, again, err)
				}
			}
		}
	})
}
