// Package chaos closes the loop between the planner's k-failure guarantee
// (Algorithm 1, §4.1) and the behaviour of a provisioned region. It has
// three layers:
//
//   - Scenario generators produce typed failure scenarios over a fiber map:
//     duct cuts (the paper's failure model), fiber-hut loss (every incident
//     duct), amplifier-site failure, DC-site loss, and correlated
//     geo-radius events (a backhoe or disaster severing every duct whose
//     route passes through a disk).
//   - The Auditor (audit.go) replays each scenario against a finished plan
//     and verifies the provisioned capacities still admit the hose traffic
//     of every surviving DC pair, aggregating survivability curves.
//   - The Injector (inject.go) turns scenarios into live device faults on
//     an emulated fabric and drives the irisd control plane through
//     inject → detect → restore → heal → replan cycles, measuring
//     detection-to-repair latency from trace spans.
package chaos

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"iris/internal/fibermap"
	"iris/internal/geo"
	"iris/internal/graph"
	"iris/internal/jsonw"
	"iris/internal/optics"
	"iris/internal/plan"
)

// Kind classifies a failure scenario.
type Kind int

const (
	// ductCut severs a set of fiber ducts — the planner's own failure
	// model (OC4 plans against up to MaxFailures simultaneous cuts).
	ductCut Kind = iota
	// hutLoss takes a fiber hut offline: every duct terminating there is
	// severed at once (power loss, fire, flooding).
	hutLoss
	// ampFailure fails an amplifier site. Losing the amplifier darkens
	// the hut's optical line system, so it is modelled conservatively as
	// the loss of every duct incident to the site.
	ampFailure
	// dcLoss takes a data-center site offline, severing its access ducts.
	dcLoss
	// geoEvent is a correlated failure: every duct whose route passes
	// within a radius of an epicentre is severed together, modelling
	// backhoe cuts and localized disasters that the independent-failure
	// model misses.
	geoEvent
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case ductCut:
		return "cut"
	case hutLoss:
		return "hut"
	case ampFailure:
		return "amp"
	case dcLoss:
		return "dc"
	case geoEvent:
		return "geo"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// MarshalText lets JSON surfaces report kinds by name.
func (k Kind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText parses the names MarshalText produces, so faults and
// audit results round-trip through their JSON surfaces.
func (k *Kind) UnmarshalText(text []byte) error {
	parsed, err := kindFromString(string(text))
	if err != nil {
		return err
	}
	*k = parsed
	return nil
}

// kindFromString parses the names String produces.
func kindFromString(s string) (Kind, error) {
	for _, k := range []Kind{ductCut, hutLoss, ampFailure, dcLoss, geoEvent} {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("chaos: unknown scenario kind %q", s)
}

// Scenario is one failure event: a set of simultaneously severed ducts,
// tagged with what caused it. Every scenario reduces to its duct set for
// auditing; the kind and site drive reporting and live injection.
type Scenario struct {
	Kind Kind   `json:"kind"`
	Name string `json:"name"`
	// Ducts are the severed duct IDs, sorted ascending.
	Ducts []int `json:"ducts"`
	// Node is the failed site for hutLoss, ampFailure and dcLoss; -1
	// otherwise.
	Node int `json:"node,omitempty"`
	// Center and RadiusKM locate a geoEvent.
	Center   geo.Point `json:"center"`
	RadiusKM float64   `json:"radius_km,omitempty"`
}

func (s Scenario) AppendJSON(b []byte) []byte {
	b = jsonw.String(append(b, `{"kind":`...), s.Kind.String())
	b = jsonw.String(append(b, `,"name":`...), s.Name)
	b = jsonw.Ints(append(b, `,"ducts":`...), s.Ducts)
	if s.Node != 0 {
		b = jsonw.Int(append(b, `,"node":`...), s.Node)
	}
	b = jsonw.Float(append(b, `,"center":{"X":`...), s.Center.X)
	b = jsonw.Float(append(b, `,"Y":`...), s.Center.Y)
	b = append(b, '}')
	if s.RadiusKM != 0 {
		b = jsonw.Float(append(b, `,"radius_km":`...), s.RadiusKM)
	}
	return append(b, '}')
}

// CutCount returns the number of ducts the scenario severs.
func (s Scenario) CutCount() int { return len(s.Ducts) }

// CutSet returns the severed ducts as a set. The auditor takes Ducts as
// they are (graph.Cut.Set); CutSet feeds graph.WithoutEdges, the reference
// path tests and benchmarks compare against.
func (s Scenario) CutSet() map[int]bool {
	set := make(map[int]bool, len(s.Ducts))
	for _, id := range s.Ducts {
		set[id] = true
	}
	return set
}

// Cut builds a plain duct-cut scenario from the given duct IDs, in any
// order and with repeats: a duct is cut once however often it is named.
func Cut(ducts ...int) Scenario {
	sorted := append([]int(nil), ducts...)
	sort.Ints(sorted)
	sorted = slices.Compact(sorted)
	return Scenario{
		Kind:  ductCut,
		Name:  fmt.Sprintf("cut%v", sorted),
		Ducts: sorted,
		Node:  -1,
	}
}

// usableDucts returns the IDs of m's ducts short enough to carry traffic
// point-to-point (§4.1 excludes ducts beyond the unamplified span limit,
// matching plan.BaseGraph). Cutting an excluded duct is a no-op, so
// generators enumerate only these.
func usableDucts(m *fibermap.Map) []int {
	var ids []int
	for _, d := range m.Ducts {
		if d.FiberKM <= optics.MaxSpanKM {
			ids = append(ids, d.ID)
		}
	}
	return ids
}

// incidentDucts returns the usable ducts terminating at the given node.
func incidentDucts(m *fibermap.Map, node int) []int {
	var ids []int
	for _, d := range m.Ducts {
		if (d.A == node || d.B == node) && d.FiberKM <= optics.MaxSpanKM {
			ids = append(ids, d.ID)
		}
	}
	return ids
}

// EnumerateCuts exhaustively generates every duct-cut scenario of size 0
// through maxCuts over m's usable ducts, in deterministic order (the
// failure-free baseline first, then depth-first by duct ID). The size-0
// scenario anchors a survivability curve.
func EnumerateCuts(m *fibermap.Map, maxCuts int) []Scenario {
	ids := usableDucts(m)
	out := make([]Scenario, 0, graph.CountFailureScenarios(len(ids), maxCuts))
	graph.FailureScenarios(ids, maxCuts, func(cut []int) {
		out = append(out, Cut(cut...))
	})
	return out
}

// SampleCuts draws n distinct duct-cut scenarios of exactly k cuts,
// uniformly without replacement from the usable ducts, for failure spaces
// too large to enumerate. The same seed always yields the same scenarios.
// Fewer than n scenarios are returned when the space is smaller than n.
func SampleCuts(seed int64, m *fibermap.Map, k, n int) []Scenario {
	ids := usableDucts(m)
	if k <= 0 || k > len(ids) {
		return nil
	}
	if total := graph.CountFailureScenarios(len(ids), k) - graph.CountFailureScenarios(len(ids), k-1); n > total {
		n = total
	}
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[string]bool, n)
	out := make([]Scenario, 0, n)
	for len(out) < n {
		perm := rng.Perm(len(ids))
		ducts := make([]int, k)
		for i := 0; i < k; i++ {
			ducts[i] = ids[perm[i]]
		}
		sc := Cut(ducts...)
		if seen[sc.Name] {
			continue
		}
		seen[sc.Name] = true
		out = append(out, sc)
	}
	return out
}

// HutLossScenarios generates one scenario per fiber hut, each severing
// every usable duct incident to the hut.
func HutLossScenarios(m *fibermap.Map) []Scenario {
	var out []Scenario
	for _, n := range m.Nodes {
		if n.Kind != fibermap.Hut {
			continue
		}
		ducts := incidentDucts(m, n.ID)
		if len(ducts) == 0 {
			continue
		}
		sc := Cut(ducts...)
		sc.Kind = hutLoss
		sc.Name = fmt.Sprintf("hut %s", n.Name)
		sc.Node = n.ID
		out = append(out, sc)
	}
	return out
}

// DCLossScenarios generates one scenario per data center, each severing
// the DC's access ducts. A DC loss always disconnects that DC; the audit
// reports whether the surviving DCs' traffic still fits.
func DCLossScenarios(m *fibermap.Map) []Scenario {
	var out []Scenario
	for _, n := range m.Nodes {
		if n.Kind != fibermap.DC {
			continue
		}
		ducts := incidentDucts(m, n.ID)
		if len(ducts) == 0 {
			continue
		}
		sc := Cut(ducts...)
		sc.Kind = dcLoss
		sc.Name = fmt.Sprintf("dc %s", n.Name)
		sc.Node = n.ID
		out = append(out, sc)
	}
	return out
}

// AmpFailureScenarios generates one scenario per amplifier site of the
// plan. An amplifier failure darkens every lit fiber through its hut, so
// the site's incident ducts are severed (a conservative model: paths not
// using the amplifier but switched at the hut are counted as lost too).
func AmpFailureScenarios(pl *plan.Plan) []Scenario {
	sites := make([]int, 0, len(pl.Amps))
	for node, count := range pl.Amps {
		if count > 0 {
			sites = append(sites, node)
		}
	}
	sort.Ints(sites)
	var out []Scenario
	for _, node := range sites {
		ducts := incidentDucts(pl.Input.Map, node)
		if len(ducts) == 0 {
			continue
		}
		sc := Cut(ducts...)
		sc.Kind = ampFailure
		sc.Name = fmt.Sprintf("amp %s", pl.Input.Map.Nodes[node].Name)
		sc.Node = node
		out = append(out, sc)
	}
	return out
}

// GeoEvents generates n correlated failure scenarios: epicentres drawn
// uniformly from the map's footprint, each severing every usable duct
// whose straight-line route passes within radiusKM of the epicentre.
// Events that hit no duct are redrawn (bounded), so every returned
// scenario severs at least one duct. The same seed yields the same events.
func GeoEvents(seed int64, m *fibermap.Map, radiusKM float64, n int) []Scenario {
	pts := make([]geo.Point, len(m.Nodes))
	for i, node := range m.Nodes {
		pts[i] = node.Pos
	}
	rect := geo.BoundingRect(pts)
	rng := rand.New(rand.NewSource(seed))
	out := make([]Scenario, 0, n)
	for attempts := 0; len(out) < n && attempts < 64*n; attempts++ {
		c := geo.RandomInRect(rng, rect)
		var ducts []int
		for _, d := range m.Ducts {
			if d.FiberKM > optics.MaxSpanKM {
				continue
			}
			if geo.DistToSegment(c, m.Nodes[d.A].Pos, m.Nodes[d.B].Pos) <= radiusKM {
				ducts = append(ducts, d.ID)
			}
		}
		if len(ducts) == 0 {
			continue
		}
		sc := Cut(ducts...)
		sc.Kind = geoEvent
		sc.Name = fmt.Sprintf("geo %s r=%.1f", c, radiusKM)
		sc.Node = -1
		sc.Center = c
		sc.RadiusKM = radiusKM
		out = append(out, sc)
	}
	return out
}
