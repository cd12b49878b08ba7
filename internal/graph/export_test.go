package graph

// HeapDijkstra exposes the typed-heap oracle of arena_test.go to the
// external tests, which can import packages that themselves import graph.
func (g *Graph) HeapDijkstra(source int, seeds []Seed) *ShortestPathTree {
	return g.heapDijkstra(source, seeds)
}
