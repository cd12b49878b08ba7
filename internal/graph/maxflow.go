package graph

import (
	"fmt"
	"math"
)

// FlowNetwork is a directed flow network for max-flow computations. It is
// separate from Graph because its flows run over capacities a plan
// provisioned, not over the fiber map's distances: the survivability
// auditor's worst-pair throughput and the topology API's min-cut counts
// both build one arc pair per duct with fiber. A network is meant to be
// kept across the flows of one set of arcs: the auditor sets a scenario's
// cut arcs with SetCapacity and Resets, the API Resets between pairs, and
// both — like MaxFlow — run on the storage earlier calls grew, so a
// warmed network allocates nothing.
type FlowNetwork struct {
	n    int
	arcs []arc // forward/backward arcs interleaved: arc i's reverse is i^1
	head [][]int
	orig []float64 // as-built capacities, restored by Reset

	// MaxFlow's per-run state.
	level, iter, queue []int
}

type arc struct {
	to  int
	cap float64
}

// flowEps is the residual capacity below which an arc counts as saturated.
const flowEps = 1e-12

// NewFlowNetwork returns a flow network with n nodes and no arcs.
func NewFlowNetwork(n int) *FlowNetwork {
	f := new(FlowNetwork)
	f.clear(n)
	return f
}

// clear makes the network one of n nodes and no arcs, keeping its storage.
func (f *FlowNetwork) clear(n int) {
	// Adjacency lists past the nodes in use are empty, so only those in
	// use need emptying.
	for i := range f.head {
		f.head[i] = f.head[i][:0]
	}
	if n > cap(f.head) {
		f.head = append(f.head[:cap(f.head)], make([][]int, n-cap(f.head))...)
	}
	f.head = f.head[:n]
	f.n = n
	f.arcs = f.arcs[:0]
	f.orig = f.orig[:0]
}

func checkCapacity(u, v int, capacity float64) {
	if capacity < 0 || math.IsNaN(capacity) {
		panic(fmt.Sprintf("graph: arc (%d,%d) has invalid capacity %v", u, v, capacity))
	}
}

// AddArc adds a directed arc from u to v with the given capacity and
// returns its index, usable with SetCapacity. Capacities must be
// non-negative; math.Inf(1) is allowed for unbounded arcs.
func (f *FlowNetwork) AddArc(u, v int, capacity float64) int {
	if u < 0 || u >= f.n || v < 0 || v >= f.n {
		panic(fmt.Sprintf("graph: arc (%d,%d) out of range [0,%d)", u, v, f.n))
	}
	checkCapacity(u, v, capacity)
	idx := len(f.arcs)
	f.arcs = append(f.arcs, arc{to: v, cap: capacity}, arc{to: u, cap: 0})
	f.orig = append(f.orig, capacity, 0)
	f.head[u] = append(f.head[u], idx)
	f.head[v] = append(f.head[v], idx+1)
	return idx
}

// SetCapacity changes the as-built capacity of the arc AddArc returned
// arcIdx for, under AddArc's rule for capacities. The arc itself is left
// carrying no flow; the residual state MaxFlow left on the rest of the
// network stays, so call Reset before the next independent computation.
// A failure-scenario loop keeps one network and sets the cut arcs to zero
// and back instead of building a network per scenario.
func (f *FlowNetwork) SetCapacity(arcIdx int, capacity float64) {
	checkCapacity(f.arcs[arcIdx^1].to, f.arcs[arcIdx].to, capacity)
	f.orig[arcIdx] = capacity
	f.arcs[arcIdx].cap = capacity
	f.arcs[arcIdx^1].cap = 0
}

// Reset restores every arc to its as-built capacity, discarding the
// residual state left by MaxFlow. It lets callers run independent max-flow
// computations on one network (e.g. one per traffic pair in a survivability
// audit) without rebuilding it per run.
func (f *FlowNetwork) Reset() {
	for i := range f.arcs {
		f.arcs[i].cap = f.orig[i]
	}
}

// MaxFlow computes the maximum s-t flow using Dinic's algorithm and returns
// its value. Capacities are consumed in place: calling MaxFlow twice on the
// same network continues from the previous residual state. Call Reset
// between runs for a fresh computation.
func (f *FlowNetwork) MaxFlow(s, t int) float64 {
	if s == t {
		return 0
	}
	if cap(f.level) < f.n {
		f.level = make([]int, f.n)
		f.iter = make([]int, f.n)
		f.queue = make([]int, 0, f.n)
	}
	f.level, f.iter = f.level[:f.n], f.iter[:f.n]

	var total float64
	for f.bfs(s, t) {
		clear(f.iter)
		for {
			pushed := f.dfs(s, t, math.Inf(1))
			if pushed <= flowEps {
				break
			}
			total += pushed
		}
	}
	return total
}

// bfs labels every node with its distance from s over unsaturated arcs
// and reports whether t was reached.
func (f *FlowNetwork) bfs(s, t int) bool {
	level := f.level
	for i := range level {
		level[i] = -1
	}
	// Every node is queued at most once, so the queue never outgrows n.
	queue := append(f.queue[:0], s)
	level[s] = 0
	for qi := 0; qi < len(queue); qi++ {
		u := queue[qi]
		for _, ai := range f.head[u] {
			a := f.arcs[ai]
			if a.cap > flowEps && level[a.to] < 0 {
				level[a.to] = level[u] + 1
				queue = append(queue, a.to)
			}
		}
	}
	return level[t] >= 0
}

// dfs pushes one augmenting path's worth of flow, at most limit, from u
// to t along the level graph and returns the amount pushed.
func (f *FlowNetwork) dfs(u, t int, limit float64) float64 {
	if u == t {
		return limit
	}
	for ; f.iter[u] < len(f.head[u]); f.iter[u]++ {
		ai := f.head[u][f.iter[u]]
		a := &f.arcs[ai]
		if a.cap <= flowEps || f.level[a.to] != f.level[u]+1 {
			continue
		}
		pushed := f.dfs(a.to, t, math.Min(limit, a.cap))
		if pushed > flowEps {
			a.cap -= pushed
			f.arcs[ai^1].cap += pushed
			return pushed
		}
	}
	return 0
}

// Flow returns the flow the MaxFlow runs since the last Reset routed on the
// arc AddArc returned arcIdx for: what its reverse arc gained.
func (f *FlowNetwork) Flow(arcIdx int) float64 { return f.arcs[arcIdx^1].cap }

// MinCutInto marks in seen, after a MaxFlow(s,t) run, the nodes reachable
// from s in the residual network, and returns it; seen is grown to one
// entry per node when shorter (nil allocates one) and overwritten. The
// arcs crossing from the set to its complement form a minimum cut. The
// search runs on the network's own queue, so a seen slice that is kept
// makes the call allocation-free.
func (f *FlowNetwork) MinCutInto(s int, seen []bool) []bool {
	if cap(seen) < f.n {
		seen = make([]bool, f.n)
	}
	seen = seen[:f.n]
	clear(seen)
	// Every node is queued at most once, so the queue MaxFlow sized never
	// outgrows n.
	queue := append(f.queue[:0], s)
	seen[s] = true
	for qi := 0; qi < len(queue); qi++ {
		for _, ai := range f.head[queue[qi]] {
			if a := f.arcs[ai]; a.cap > flowEps && !seen[a.to] {
				seen[a.to] = true
				queue = append(queue, a.to)
			}
		}
	}
	return seen
}
