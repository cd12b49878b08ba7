package chaos

import (
	"fmt"
	"math"
	"net/url"
	"strconv"
	"strings"

	"iris/internal/fibermap"
	"iris/internal/geo"
)

// ScenarioFromQuery builds a scenario from HTTP query parameters against
// a fiber map — the wire format of /debug/chaos POSTs and the topology
// API's what-if endpoint:
//
//	kind=cut&duct=3&duct=7
//	kind=hut|dc|amp&node=4   (hut on a hut, dc on a DC)
//	kind=geo&x=1.5&y=-3&radius=2
func ScenarioFromQuery(m *fibermap.Map, q url.Values) (Scenario, error) {
	kind, err := kindFromString(q.Get("kind"))
	if err != nil {
		return Scenario{}, err
	}
	parseNode := func() (int, error) {
		n, err := strconv.Atoi(q.Get("node"))
		if err != nil || n < 0 || n >= len(m.Nodes) {
			return 0, fmt.Errorf("chaos: bad node %q", q.Get("node"))
		}
		return n, nil
	}
	switch kind {
	case ductCut:
		var ducts []int
		for _, v := range q["duct"] {
			id, err := strconv.Atoi(v)
			if err != nil || id < 0 || id >= len(m.Ducts) {
				return Scenario{}, fmt.Errorf("chaos: bad duct %q", v)
			}
			ducts = append(ducts, id)
		}
		if len(ducts) == 0 {
			return Scenario{}, fmt.Errorf("chaos: cut needs at least one duct")
		}
		return Cut(ducts...), nil
	case hutLoss, dcLoss, ampFailure:
		node, err := parseNode()
		if err != nil {
			return Scenario{}, err
		}
		// The map does not know the plan's amplifier sites; it does know
		// which nodes are huts and which DCs.
		if k := m.Nodes[node].Kind; (kind == hutLoss && k != fibermap.Hut) || (kind == dcLoss && k != fibermap.DC) {
			return Scenario{}, fmt.Errorf("chaos: %s scenario on node %d, a %s", kind, node, k)
		}
		sc := Cut(incidentDucts(m, node)...)
		sc.Kind = kind
		sc.Name = fmt.Sprintf("%s %s", kind, m.Nodes[node].Name)
		sc.Node = node
		return sc, nil
	case geoEvent:
		x, errX := strconv.ParseFloat(q.Get("x"), 64)
		y, errY := strconv.ParseFloat(q.Get("y"), 64)
		radius, errR := strconv.ParseFloat(q.Get("radius"), 64)
		// NaN and ±Inf parse as floats; JSON cannot carry them back.
		if errX != nil || errY != nil || errR != nil || !finite(x) || !finite(y) || !finite(radius) || radius <= 0 {
			return Scenario{}, fmt.Errorf("chaos: geo needs finite x, y and a positive radius")
		}
		c := geo.Point{X: x, Y: y}
		var ducts []int
		for _, d := range m.Ducts {
			if geo.DistToSegment(c, m.Nodes[d.A].Pos, m.Nodes[d.B].Pos) <= radius {
				ducts = append(ducts, d.ID)
			}
		}
		sc := Cut(ducts...)
		sc.Kind = geoEvent
		sc.Name = fmt.Sprintf("geo %s r=%.1f", c, radius)
		sc.Node = -1
		sc.Center = c
		sc.RadiusKM = radius
		return sc, nil
	}
	return Scenario{}, fmt.Errorf("chaos: unsupported kind %q", kind)
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// ParseScenario builds a scenario from its compact text form, the
// human-typable spelling of the same scenarios ScenarioFromQuery accepts:
//
//	cut:3,7     cut ducts 3 and 7
//	hut:2       lose hut node 2
//	dc:1        lose DC node 1
//	amp:0       fail the amplifier at node 0
//	geo:x,y,r   everything within r km of (x, y)
func ParseScenario(m *fibermap.Map, s string) (Scenario, error) {
	kindStr, rest, ok := strings.Cut(strings.TrimSpace(s), ":")
	if !ok || rest == "" {
		return Scenario{}, fmt.Errorf("chaos: scenario %q: want kind:args (e.g. cut:3,7 or geo:1.5,-3,2)", s)
	}
	q := url.Values{"kind": {kindStr}}
	args := strings.Split(rest, ",")
	switch kindStr {
	case "cut":
		q["duct"] = args
	case "hut", "dc", "amp":
		if len(args) != 1 {
			return Scenario{}, fmt.Errorf("chaos: scenario %q: %s takes one node", s, kindStr)
		}
		q.Set("node", args[0])
	case "geo":
		if len(args) != 3 {
			return Scenario{}, fmt.Errorf("chaos: scenario %q: geo takes x,y,radius", s)
		}
		q.Set("x", args[0])
		q.Set("y", args[1])
		q.Set("radius", args[2])
	default:
		return Scenario{}, fmt.Errorf("chaos: scenario %q: unknown kind %q", s, kindStr)
	}
	return ScenarioFromQuery(m, q)
}
