// Package fibermap models the physical input to regional DCI planning: the
// metro fiber map (data centers, fiber huts, and the fiber ducts between
// them) described in §2 of the paper. It also provides a synthetic region
// generator standing in for the proprietary Azure fiber maps, and the
// paper's randomized data-center placement procedure (§6.1).
//
// Distances are kilometres of fiber. Ducts are treated as offering
// unbounded leaseable fiber counts, per standard industry practice noted in
// the paper; how many fibers are actually leased on each duct is the
// planner's output, not part of this package.
package fibermap

import (
	"fmt"
	"math"

	"iris/internal/geo"
	"iris/internal/graph"
)

// NodeKind distinguishes the two kinds of fiber-map nodes.
type NodeKind int

const (
	// Hut is an intermediate node housing switching equipment and
	// amplifiers. Huts may be promoted to hubs by a centralized design.
	Hut NodeKind = iota
	// DC is a data center: a traffic source and sink with known capacity.
	DC
)

// String implements fmt.Stringer.
func (k NodeKind) String() string {
	switch k {
	case Hut:
		return "hut"
	case DC:
		return "dc"
	}
	return fmt.Sprintf("NodeKind(%d)", int(k))
}

// Node is a location on the fiber map.
type Node struct {
	ID   int
	Kind NodeKind
	Pos  geo.Point
	Name string
}

// Duct is a fiber duct between two nodes. FiberKM is the length of fiber a
// lease in this duct traverses, which exceeds the straight-line distance by
// the road factor.
type Duct struct {
	ID      int
	A, B    int
	FiberKM float64
}

// Map is a region's fiber map. Node IDs are dense indices into Nodes and
// duct IDs dense indices into Ducts; both are stable for the lifetime of
// the map.
type Map struct {
	Nodes []Node
	Ducts []Duct
}

// AddNode appends a node and returns its ID.
func (m *Map) AddNode(kind NodeKind, pos geo.Point, name string) int {
	id := len(m.Nodes)
	if name == "" {
		name = fmt.Sprintf("%s%d", kind, id)
	}
	m.Nodes = append(m.Nodes, Node{ID: id, Kind: kind, Pos: pos, Name: name})
	return id
}

// AddDuct appends a duct between nodes a and b with the given fiber length
// and returns its ID. It panics on invalid endpoints or length, which are
// programming errors in map construction.
func (m *Map) AddDuct(a, b int, fiberKM float64) int {
	if a < 0 || a >= len(m.Nodes) || b < 0 || b >= len(m.Nodes) || a == b {
		panic(fmt.Sprintf("fibermap: invalid duct endpoints (%d,%d)", a, b))
	}
	if fiberKM <= 0 || math.IsNaN(fiberKM) {
		panic(fmt.Sprintf("fibermap: invalid duct length %v", fiberKM))
	}
	id := len(m.Ducts)
	m.Ducts = append(m.Ducts, Duct{ID: id, A: a, B: b, FiberKM: fiberKM})
	return id
}

// DCs returns the IDs of all data-center nodes, in ID order.
func (m *Map) DCs() []int {
	var ids []int
	for _, n := range m.Nodes {
		if n.Kind == DC {
			ids = append(ids, n.ID)
		}
	}
	return ids
}

// Huts returns the IDs of all hut nodes, in ID order.
func (m *Map) Huts() []int {
	var ids []int
	for _, n := range m.Nodes {
		if n.Kind == Hut {
			ids = append(ids, n.ID)
		}
	}
	return ids
}

// Graph returns the fiber map as a weighted graph whose edge IDs are duct
// IDs and weights are fiber kilometres.
func (m *Map) Graph() *graph.Graph {
	g := graph.New(len(m.Nodes))
	for _, d := range m.Ducts {
		g.AddEdge(d.ID, d.A, d.B, d.FiberKM)
	}
	return g
}

// Clone returns a deep copy of the map, so experiments can extend a base
// map (e.g. attach a candidate DC) without mutating it.
func (m *Map) Clone() *Map {
	c := &Map{
		Nodes: append([]Node(nil), m.Nodes...),
		Ducts: append([]Duct(nil), m.Ducts...),
	}
	return c
}

// Validate checks structural invariants: dense IDs, valid endpoints, a
// connected duct graph. It returns an error describing the first violation.
func (m *Map) Validate() error {
	for i, n := range m.Nodes {
		if n.ID != i {
			return fmt.Errorf("fibermap: node %d has ID %d", i, n.ID)
		}
	}
	for i, d := range m.Ducts {
		if d.ID != i {
			return fmt.Errorf("fibermap: duct %d has ID %d", i, d.ID)
		}
		if d.A < 0 || d.A >= len(m.Nodes) || d.B < 0 || d.B >= len(m.Nodes) {
			return fmt.Errorf("fibermap: duct %d endpoints (%d,%d) out of range", i, d.A, d.B)
		}
		if d.FiberKM <= 0 {
			return fmt.Errorf("fibermap: duct %d has non-positive length %v", i, d.FiberKM)
		}
	}
	if len(m.Nodes) > 1 {
		labels := m.Graph().Components()
		for _, l := range labels {
			if l != 0 {
				return fmt.Errorf("fibermap: duct graph is disconnected")
			}
		}
	}
	return nil
}
