package topoapi

import (
	"encoding/binary"
	"slices"
	"sync"

	"iris/internal/core"
	"iris/internal/graph"
	"iris/internal/hose"
)

const (
	// maxCutK is the deepest cut /api/critical examines.
	maxCutK = 3
	// maxCutSets bounds the cut sets one overlay build enumerates, and
	// with it the partitions an overlay holds: a request's k is lowered
	// until its ≤k cut sets fit (87 ducts fit k=3, 200 ducts only k=2).
	maxCutSets = 1 << 20
)

// cutOverlay is what the ≤k duct cuts of one base graph do to its
// connectivity — decided by the deployment alone, so enumerated once
// and not per request: the distinct node partitions the cut sets produce
// and, per duct, which of them a cut set containing the duct produces.
// A request sums its demand once per partition. Immutable once built.
type cutOverlay struct {
	labels [][]int32 // by partition: each node's component; partition 0 is the uncut graph's
	parts  [][]int32 // by edge index: the partitions of the cut sets containing the duct, ascending
	solo   []int32   // by edge index: the partition of the duct cut alone
}

// buildOverlay enumerates the cut sets of at most k edges of base with
// the kernel /api/whatif strands by, interning each set's component
// labels (canonical: dense, by smallest node).
func buildOverlay(base *graph.Graph, k int) *cutOverlay {
	edges := base.Edges()
	ov := &cutOverlay{parts: make([][]int32, len(edges)), solo: make([]int32, len(edges))}
	ids := make([]int, len(edges))
	for i, e := range edges {
		ids[i] = e.ID
	}
	cut := graph.NewCut(base)
	var labels []int
	key := make([]byte, 4*base.NumNodes())
	interned := make(map[string]int32)
	graph.FailureScenarios(ids, k, func(set []int) {
		cut.Set(set)
		labels = base.ComponentsInto(cut.Skip(), labels)
		for v, l := range labels {
			binary.LittleEndian.PutUint32(key[4*v:], uint32(l))
		}
		p, ok := interned[string(key)]
		if !ok {
			p = int32(len(interned))
			interned[string(key)] = p
			part := make([]int32, len(labels))
			for v, l := range labels {
				part[v] = int32(l)
			}
			ov.labels = append(ov.labels, part)
		}
		for _, id := range set {
			i, _ := base.EdgeIndex(id)
			if len(set) == 1 {
				ov.solo[i] = p
			}
			// Depth-first order repeats a duct's partition in runs;
			// what gets past this is compacted below.
			if l := ov.parts[i]; len(l) == 0 || l[len(l)-1] != p {
				ov.parts[i] = append(l, p)
			}
		}
	})
	for i, l := range ov.parts {
		slices.Sort(l)
		ov.parts[i] = slices.Compact(l)
	}
	return ov
}

// stranded returns, per partition, the demand of the pairs it separates,
// summed in the order given: per cut set the sum /api/critical always
// made, made once for all the cut sets that share the partition.
func (ov *cutOverlay) stranded(demand []PairDemand) []float64 {
	sums := make([]float64, len(ov.labels))
	for p, labels := range ov.labels {
		sums[p] = separated(labels, demand)
	}
	return sums
}

// cuts returns a deployment's base graph and its ≤k cut overlay, with k
// lowered to the depth answered. The build runs outside mu and once:
// only requests for the same overlay wait for it.
func (s *Server) cuts(dep *core.Deployment, k int) (*graph.Graph, *cutOverlay, int) {
	s.mu.Lock()
	s.retool(dep)
	base := s.base
	k = min(k, maxCutK)
	for k > 1 && graph.CountFailureScenarios(base.NumEdges(), k) > maxCutSets {
		k--
	}
	get := s.overlays[k-1]
	if get == nil {
		get = sync.OnceValue(func() *cutOverlay {
			s.builds.Add(1)
			return buildOverlay(base, k)
		})
		s.overlays[k-1] = get
	}
	s.mu.Unlock()
	return base, get(), k
}

// minCutMemo keeps the last min_cut_pairs column: it depends on the
// plan's fiber and on which pairs are live, never on how much they
// carry, so it is replaced only when the deployment or the live-pair
// list changes.
type minCutMemo struct {
	mu     sync.Mutex
	dep    *core.Deployment
	pairs  []hose.Pair
	counts []int
}

// minCutPairs counts, per edge index of base, the given live DC pairs
// whose max-flow min cut crosses the duct, over the provisioned fiber
// (base + cut-through + residual, the capacities the survivability
// auditor flows over). Callers must not modify the result.
func (s *Server) minCutPairs(dep *core.Deployment, base *graph.Graph, pairs []hose.Pair) []int {
	mc := &s.minCut
	mc.mu.Lock()
	defer mc.mu.Unlock()
	if mc.dep == dep && slices.Equal(mc.pairs, pairs) {
		return mc.counts
	}
	counts := make([]int, base.NumEdges())
	f := graph.NewFlowNetwork(base.NumNodes())
	lit := make([]bool, base.NumEdges()) // ducts with provisioned fiber
	for i, e := range base.Edges() {
		if du := dep.Plan.Ducts[e.ID]; du != nil && du.TotalPairs() > 0 {
			lit[i] = true
			f.AddArc(e.U, e.V, float64(du.TotalPairs()))
			f.AddArc(e.V, e.U, float64(du.TotalPairs()))
		}
	}
	var seen []bool
	for _, p := range pairs {
		f.Reset()
		f.MaxFlow(p.A, p.B)
		seen = f.MinCutInto(p.A, seen)
		for i, e := range base.Edges() {
			if lit[i] && seen[e.U] != seen[e.V] {
				counts[i]++
			}
		}
	}
	mc.dep, mc.pairs, mc.counts = dep, pairs, counts
	return counts
}
