package graph

import (
	"reflect"
	"testing"
)

// diamond builds the classic Yen test graph:
//
//	0 --1-- 1 --1-- 3
//	 \       |     /
//	  2      1    2
//	   \     |   /
//	    `--- 2 -'
//
// Edges: 0:(0-1,1) 1:(1-3,1) 2:(0-2,2) 3:(1-2,1) 4:(2-3,2)
func diamond() *Graph {
	g := New(4)
	g.AddEdge(0, 0, 1, 1)
	g.AddEdge(1, 1, 3, 1)
	g.AddEdge(2, 0, 2, 2)
	g.AddEdge(3, 1, 2, 1)
	g.AddEdge(4, 2, 3, 2)
	return g
}

func edgeIDs(p Path) []int {
	ids := make([]int, len(p.Edges))
	for i, e := range p.Edges {
		ids[i] = e.ID
	}
	return ids
}

func TestKShortestPathsDiamond(t *testing.T) {
	g := diamond()
	paths := g.KShortestPaths(0, 3, 10)
	if len(paths) != 4 {
		t.Fatalf("want 4 loopless paths, got %d: %v", len(paths), paths)
	}
	want := [][]int{
		{0, 1},    // 0-1-3, dist 2
		{2, 4},    // 0-2-3, dist 4, 2 hops
		{0, 3, 4}, // 0-1-2-3, dist 4, 3 hops, node seq beats 0-2-1-3
		{2, 3, 1}, // 0-2-1-3, dist 4, 3 hops
	}
	wantDist := []float64{2, 4, 4, 4}
	for i, p := range paths {
		if got := edgeIDs(p); !reflect.DeepEqual(got, want[i]) {
			t.Errorf("path %d: edges = %v, want %v", i, got, want[i])
		}
		if p.Dist != wantDist[i] {
			t.Errorf("path %d: dist = %v, want %v", i, p.Dist, wantDist[i])
		}
	}
	// Paths must be sorted best-first.
	for i := 1; i < len(paths); i++ {
		if paths[i].Dist < paths[i-1].Dist {
			t.Errorf("paths out of order at %d: %v after %v", i, paths[i].Dist, paths[i-1].Dist)
		}
	}
}

func TestKShortestPathsLoopless(t *testing.T) {
	g := diamond()
	for _, p := range g.KShortestPaths(0, 3, 10) {
		seen := map[int]bool{}
		for _, n := range p.Nodes {
			if seen[n] {
				t.Errorf("path %v revisits node %d", p.Nodes, n)
			}
			seen[n] = true
		}
	}
}

func TestKShortestPathsTruncatesAtK(t *testing.T) {
	g := diamond()
	if got := len(g.KShortestPaths(0, 3, 2)); got != 2 {
		t.Fatalf("k=2: got %d paths", got)
	}
	if got := g.KShortestPaths(0, 3, 0); got != nil {
		t.Fatalf("k=0: got %v, want nil", got)
	}
}

func TestKShortestPathsParallelEdges(t *testing.T) {
	// Two parallel ducts between the same DCs are distinct paths.
	g := New(2)
	g.AddEdge(7, 0, 1, 5)
	g.AddEdge(9, 0, 1, 3)
	paths := g.KShortestPaths(0, 1, 5)
	if len(paths) != 2 {
		t.Fatalf("want 2 parallel-edge paths, got %d", len(paths))
	}
	if paths[0].Edges[0].ID != 9 || paths[1].Edges[0].ID != 7 {
		t.Errorf("got edge order %d,%d; want 9,7", paths[0].Edges[0].ID, paths[1].Edges[0].ID)
	}
}

func TestKShortestPathsUnreachable(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 0, 1, 1)
	if got := g.KShortestPaths(0, 2, 3); got != nil {
		t.Fatalf("unreachable: got %v, want nil", got)
	}
	if got := g.KShortestPaths(0, 9, 3); got != nil {
		t.Fatalf("out of range: got %v, want nil", got)
	}
}

func TestKShortestPathsSameNode(t *testing.T) {
	g := diamond()
	paths := g.KShortestPaths(2, 2, 3)
	if len(paths) != 1 || paths[0].Dist != 0 || len(paths[0].Edges) != 0 {
		t.Fatalf("self path: got %v", paths)
	}
}
