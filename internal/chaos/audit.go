package chaos

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"iris/internal/graph"
	"iris/internal/jsonw"
	"iris/internal/optics"
	"iris/internal/parallel"
	"iris/internal/plan"
)

// Auditor replays failure scenarios against a finished plan and checks
// whether the provisioned capacities still admit the hose traffic.
//
// Each scenario goes through the planner's own kernel (plan.Evaluator):
// the cut becomes a skip mask over the base graph, every DC pair is
// re-routed with the same deterministic Dijkstra tie-breaking (and the
// same hub walks for centralized plans), and per crossed duct the
// provisioning rule's need is compared with the base plus cut-through
// fiber leased there. Cut-through fiber counts because its riders are
// among the crossing pairs and their load never exceeds the cut-through's
// provisioned size (the b-matching LP is subadditive over pair-set
// unions). A pair a cut disconnects is skipped, matching the planner's
// own guarantee: Algorithm 1 owes no capacity to pairs with no surviving
// path, so admissibility means "every pair that still has a path gets its
// full hose demand", and Survives additionally demands that no pair lost
// its path.
//
// An Auditor is safe for concurrent Audit calls, each of which borrows a
// worker from a free list; Run fans scenarios out over a worker pool.
type Auditor struct {
	in plan.Input // the plan's input
	// proto routes nothing: every worker's evaluator is a Fork of it, so
	// each starts from the plan's base graph and the hose-load memo
	// planning filled.
	proto *plan.Evaluator

	// Plan-derived tables: by duct ID, and by the evaluator's pair index.
	have     []int     // base + cut-through fiber-pairs
	residual []int     // residual fiber-pairs
	baseKM   []float64 // failure-free path length, 0 for unrouted pairs

	// The failure-free flows from the lowest DC to every other DC v, by
	// v's DC position, that worstPairThroughput brackets a scenario's flows
	// with. Built by the first scenario that needs them, read-only after.
	kept      sync.Once
	flow0     []float64 // λ₀(v): the flow's value
	ductFlow0 []float64 // v's row, by duct ID: the net flow it left on the duct
	side0     []uint64  // v's row, a bitset over node IDs: the source side of its minimum cut
	sideWords int

	mu   sync.Mutex
	free []*worker
}

// worker is what one Audit call borrows, all of it built once and kept
// across the scenarios it serves: the evaluator (with its kept trees and
// the hose-load memo it extends), the flow network of the provisioned
// fiber for the worst-pair throughput, and the union-find over DC
// positions that both DisconnectedDCs and the worst-pair sources are read
// from. Results do not depend on which worker served a scenario.
type worker struct {
	ev *plan.Evaluator

	// net holds every duct the plan leased fiber on as two opposite arcs
	// of that many fiber-pairs, added in duct-ID order; arcs, by duct ID,
	// are their indices (both -1 for a duct with no fiber). A scenario
	// sets its cut ducts' arcs to zero and back.
	net  *graph.FlowNetwork
	arcs [][2]int

	root, size []int // by DC position, see cluster

	lo, hi []float64 // by DC position, see worstPairThroughput
	flows  int       // MaxFlow runs since the worker was built; BenchmarkAudit20DC gates on it
}

func (a *Auditor) newWorker() *worker {
	m := a.in.Map
	n := len(m.DCs())
	w := &worker{
		ev:   a.proto.Fork(),
		net:  graph.NewFlowNetwork(len(m.Nodes)),
		arcs: make([][2]int, len(a.have)),
		root: make([]int, n),
		size: make([]int, n),
		lo:   make([]float64, n),
		hi:   make([]float64, n),
	}
	for id := range a.have {
		w.arcs[id] = [2]int{-1, -1}
		if total := a.have[id] + a.residual[id]; total > 0 {
			d := m.Ducts[id]
			w.arcs[id] = [2]int{
				w.net.AddArc(d.A, d.B, float64(total)),
				w.net.AddArc(d.B, d.A, float64(total)),
			}
		}
	}
	return w
}

// NewAuditor prepares an auditor for the given plan. It starts from what
// planning built (Plan.NewEvaluator): the scenarios planning examined cost
// the audit no Dijkstra from nothing and no hose max-flow. It takes what
// it keeps of the plan now, so it outlives the Plan of a reused Planner.
func NewAuditor(pl *plan.Plan) *Auditor {
	a := &Auditor{in: pl.Input, proto: pl.NewEvaluator()}
	nDucts := a.in.Base.MaxEdgeID() + 1
	a.have = make([]int, nDucts)
	a.residual = make([]int, nDucts)
	for id, du := range pl.Ducts {
		a.have[id] = du.BasePairs + du.CutThroughPairs
		a.residual[id] = du.ResidualPairs
	}
	w := a.newWorker()
	a.free = append(a.free, w)
	a.baseKM = make([]float64, w.ev.NumPairs())
	for pair, info := range pl.Paths {
		if idx, ok := w.ev.PairIndex(pair); ok {
			a.baseKM[idx] = info.TotalKM
		}
	}
	return a
}

// borrow takes a worker off the free list, or builds one; release returns
// it.
func (a *Auditor) borrow() *worker {
	a.mu.Lock()
	if n := len(a.free); n > 0 {
		w := a.free[n-1]
		a.free = a.free[:n-1]
		a.mu.Unlock()
		return w
	}
	a.mu.Unlock()
	return a.newWorker()
}

func (a *Auditor) release(w *worker) {
	a.mu.Lock()
	a.free = append(a.free, w)
	a.mu.Unlock()
}

// Overload records one duct whose provisioned fiber cannot carry the
// worst-case hose load (or pair count, for residual fibers) a scenario
// routes across it.
type Overload struct {
	DuctID int `json:"duct"`
	// NeedPairs is the fiber the scenario requires on the duct.
	NeedPairs int `json:"need"`
	// HavePairs is the fiber the plan provisioned there.
	HavePairs int `json:"have"`
}

func (o Overload) AppendJSON(b []byte) []byte {
	b = jsonw.Int(append(b, `{"duct":`...), o.DuctID)
	b = jsonw.Int(append(b, `,"need":`...), o.NeedPairs)
	b = jsonw.Int(append(b, `,"have":`...), o.HavePairs)
	return append(b, '}')
}

// Result is the audit outcome for one scenario.
type Result struct {
	Scenario Scenario `json:"scenario"`
	// Cuts is the number of ducts the scenario severed.
	Cuts int `json:"cuts"`
	// Admissible: every DC pair with a surviving path gets its full hose
	// demand within the provisioned fiber.
	Admissible bool `json:"admissible"`
	// Survives: admissible and no DC pair lost its path.
	Survives bool `json:"survives"`
	// DisconnectedPairs counts DC pairs with no surviving path;
	// DisconnectedDCs lists the DCs cut off from the largest surviving
	// DC cluster (ties broken toward the cluster holding the lowest ID).
	DisconnectedPairs int   `json:"disconnected_pairs"`
	DisconnectedDCs   []int `json:"disconnected_dcs,omitempty"`
	// Overloads are ducts whose hose load exceeds base plus cut-through
	// fiber; ResidualOverloads are ducts crossed by more pairs than
	// residual fibers provisioned (§4.3).
	Overloads         []Overload `json:"overloads,omitempty"`
	ResidualOverloads []Overload `json:"residual_overloads,omitempty"`
	// WorstPairFibers is the residual worst-pair throughput: the minimum
	// over surviving DC pairs of the max-flow between them across the
	// provisioned ducts (in fiber-pairs). 0 when no pair survives.
	WorstPairFibers float64 `json:"worst_pair_fibers"`
	// MaxStretch is the worst ratio of a pair's degraded path length to
	// its failure-free length (1 when routing is unchanged).
	MaxStretch float64 `json:"max_stretch"`
	// SLAViolations counts surviving pairs whose degraded path exceeds
	// the SLA fiber distance.
	SLAViolations int `json:"sla_violations"`
}

func (r Result) AppendJSON(b []byte) []byte {
	b = r.Scenario.AppendJSON(append(b, `{"scenario":`...))
	b = jsonw.Int(append(b, `,"cuts":`...), r.Cuts)
	b = jsonw.Bool(append(b, `,"admissible":`...), r.Admissible)
	b = jsonw.Bool(append(b, `,"survives":`...), r.Survives)
	b = jsonw.Int(append(b, `,"disconnected_pairs":`...), r.DisconnectedPairs)
	if len(r.DisconnectedDCs) > 0 {
		b = jsonw.Ints(append(b, `,"disconnected_dcs":`...), r.DisconnectedDCs)
	}
	if len(r.Overloads) > 0 {
		b = jsonw.Slice(append(b, `,"overloads":`...), r.Overloads)
	}
	if len(r.ResidualOverloads) > 0 {
		b = jsonw.Slice(append(b, `,"residual_overloads":`...), r.ResidualOverloads)
	}
	b = jsonw.Float(append(b, `,"worst_pair_fibers":`...), r.WorstPairFibers)
	b = jsonw.Float(append(b, `,"max_stretch":`...), r.MaxStretch)
	b = jsonw.Int(append(b, `,"sla_violations":`...), r.SLAViolations)
	return append(b, '}')
}

// Audit replays one scenario against the plan. On a warmed worker the
// only allocations are the result's own lists: DisconnectedDCs and the
// overloads, empty for a scenario the plan survives.
func (a *Auditor) Audit(sc Scenario) Result {
	res := Result{Scenario: sc, Cuts: sc.CutCount(), MaxStretch: 1}
	w := a.borrow()
	defer a.release(w)
	ev := w.ev

	ev.Cut.Set(sc.Ducts)
	routes := ev.Route()
	for i := range routes {
		r := &routes[i]
		if !r.Routed() {
			res.DisconnectedPairs++
			continue
		}
		if r.TotalKM > optics.MaxPathKM+1e-9 {
			res.SLAViolations++
		}
		if base := a.baseKM[r.PairIdx]; base > 0 {
			if s := r.TotalKM / base; s > res.MaxStretch {
				res.MaxStretch = s
			}
		}
	}
	w.cluster(routes)
	res.DisconnectedDCs = w.strandedDCs()

	for _, l := range ev.Load(nil, nil) {
		if have := a.have[l.Duct]; l.BasePairs > have {
			res.Overloads = append(res.Overloads, Overload{DuctID: l.Duct, NeedPairs: l.BasePairs, HavePairs: have})
		}
		if have := a.residual[l.Duct]; l.ResidualPairs > have {
			res.ResidualOverloads = append(res.ResidualOverloads, Overload{DuctID: l.Duct, NeedPairs: l.ResidualPairs, HavePairs: have})
		}
	}

	res.Admissible = len(res.Overloads) == 0 && len(res.ResidualOverloads) == 0
	res.Survives = res.Admissible && res.DisconnectedPairs == 0
	if res.DisconnectedPairs < len(routes) { // else no pair survives: 0
		res.WorstPairFibers = a.worstPairThroughput(w, routes)
	}
	return res
}

// cluster groups the DC positions the surviving routes connect: after it,
// root[i] is the lowest position of i's cluster and size[r] the number of
// DCs in the cluster rooted at r.
func (w *worker) cluster(routes []plan.Route) {
	root, size := w.root, w.size
	for i := range root {
		root[i] = i
		size[i] = 0
	}
	find := func(x int) int {
		for root[x] != x {
			root[x] = root[root[x]]
			x = root[x]
		}
		return x
	}
	for i := range routes {
		if !routes[i].Routed() {
			continue
		}
		ra, rb := find(int(routes[i].I)), find(int(routes[i].J))
		if ra != rb {
			root[max(ra, rb)] = min(ra, rb)
		}
	}
	// A root is the lowest position of its cluster, so every parent link
	// points down and one ascending pass flattens them all.
	for i := range root {
		root[i] = root[root[i]]
		size[root[i]]++
	}
}

// strandedDCs returns the DCs outside the largest cluster, ascending. Ties
// go to the cluster holding the lowest DC ID, so the result is
// deterministic even for an even split.
func (w *worker) strandedDCs() []int {
	best := 0
	for i, r := range w.root { // ascending IDs: first max wins ties
		if r == i && w.size[r] > w.size[best] {
			best = r
		}
	}
	var out []int
	for i, dc := range w.ev.DCs() {
		if w.root[i] != best {
			out = append(out, dc)
		}
	}
	return out
}

// worstPairThroughput returns the minimum, over the surviving pairs, of
// the max-flow between them across the provisioned ducts the scenario did
// not cut — the residual worst-pair throughput of the degraded region.
// At least one pair must survive.
//
// One flow per DC beyond the lowest of each cluster, from that lowest DC,
// stands for one per pair. Every duct is two opposite arcs of one
// capacity, so a cut's value does not depend on its direction, and then
// min over all pairs {u,v} of a cluster of λ(u,v) equals min over v of
// λ(s,v) for any member s: take the pair (u,v) that attains the minimum
// and a minimum cut (S, S̄) between them; s lies on one side, say with u,
// and the same cut separates s from v, so λ(s,v) ≤ λ(u,v); the left side
// is a minimum over more pairs, so it is not larger either. Every pair of
// a cluster is itself routed (reachability over ducts is an equivalence),
// and the routes list pairs in pair order, so a cluster's flows are the
// routes whose lower DC is the cluster's root.
//
// Most of those flows are not run. The lowest DC s₀ roots its cluster in
// every scenario, and the auditor keeps, per DC v, the flow from s₀ to v
// on the uncut network (keepFlows): its value λ₀(v), the net flow x_v[d]
// it left on every duct d, and the source side S_v of its minimum cut.
// A scenario cutting the ducts C brackets λ_C(s₀,v) without running it:
//
//	lo(v) = λ₀(v) − Σ_{d∈C} x_v[d]
//	hi(v) = λ₀(v) − Σ_{d∈C, one end in S_v} fiber(d)
//
// lo: cancel the opposite flows on each duct's two arcs and decompose what
// is left into s₀–v paths; those through a duct d carry x_v[d] together,
// and the others are a flow that avoids C. hi: S_v still separates s₀ from
// v, and the cut took that much of its capacity. With U the least hi(v)
// over the cluster: a v with lo(v) = hi(v) is known exactly; a v with
// lo(v) ≥ min(U, the minimum so far) cannot lower the minimum; only the
// rest run MaxFlow, with C's arcs zeroed. The result is the true minimum
// M: M ≤ U, so if the v that attains M was passed over, either the
// minimum so far was already M, or lo(v) ≥ U ≥ M ≥ lo(v) — and then the u
// with hi(u) = U has λ_C(s₀,u) = M and is either known exactly or run, a
// lo(u) < hi(u) = M being below every value the minimum so far can hold.
// Capacities are whole fiber-pairs, so flows, bounds and the minimum are
// the same floats whichever way they were reached. Clusters the cut split
// off from s₀ run every flow, and so the bounds cost nothing where they
// cannot help; hut, DC, amplifier and geo scenarios are duct sets like
// any other, and the bounds hold for them, only looser.
//
// Both bounds are needed. Measured on the bench region's 3 829 cut sets of
// at most two ducts (19 flows each before): the capacity-only bound
// λ₀(v) − Σ fiber(C) still runs 15.9 flows per scenario, because most DCs
// share s₀'s degree cut as their minimum cut; lo without hi runs 1.75;
// both run 1.02. Re-checking only the v whose kept minimum cut C lies on
// is unsound alone — a cut of the uncut network that is not minimum but
// contains a duct of C can become the minimum — and a Gomory–Hu tree
// holds nothing the n−1 fixed-source flows do not, for a minimum.
//
// TestFixedSourceMinEqualsAllPairsMin holds the first rule and
// TestCutBoundsBracketMaxFlow the second, on random networks; the
// reference auditor, which still runs every pair from nothing, holds both
// on planned regions.
func (a *Auditor) worstPairThroughput(w *worker, routes []plan.Route) float64 {
	a.kept.Do(func() { a.keepFlows(w) })
	upper := math.Inf(1)
	for v := 1; v < len(w.root); v++ {
		if w.root[v] == 0 {
			a.bracket(w, v)
			upper = min(upper, w.hi[v])
		}
	}
	a.setCutArcs(w, false)
	worst := math.Inf(1)
	for i := range routes {
		r := &routes[i]
		if !r.Routed() || w.root[r.I] != int(r.I) {
			continue
		}
		if r.I == 0 {
			if lo, hi := w.lo[r.J], w.hi[r.J]; lo == hi {
				worst = min(worst, lo)
				continue
			} else if lo >= min(upper, worst) {
				continue
			}
		}
		w.net.Reset()
		w.flows++
		if flow := w.net.MaxFlow(r.Pair.A, r.Pair.B); flow < worst {
			worst = flow
		}
	}
	a.setCutArcs(w, true)
	return worst
}

// keepFlows runs the failure-free flows from the lowest DC on the worker's
// network, which must be whole, and keeps what worstPairThroughput reads
// of them.
func (a *Auditor) keepFlows(w *worker) {
	dcs, nDucts := w.ev.DCs(), len(w.arcs)
	a.sideWords = (len(a.in.Map.Nodes) + 63) / 64
	a.flow0 = make([]float64, len(dcs))
	a.ductFlow0 = make([]float64, len(dcs)*nDucts)
	a.side0 = make([]uint64, len(dcs)*a.sideWords)
	var seen []bool
	for v := 1; v < len(dcs); v++ {
		w.net.Reset()
		w.flows++
		a.flow0[v] = w.net.MaxFlow(dcs[0], dcs[v])
		for id, arcs := range w.arcs {
			if arcs[0] >= 0 {
				a.ductFlow0[v*nDucts+id] = math.Abs(w.net.Flow(arcs[0]) - w.net.Flow(arcs[1]))
			}
		}
		seen = w.net.MinCutInto(dcs[0], seen)
		for node, in := range seen {
			if in {
				a.side0[v*a.sideWords+node>>6] |= 1 << (node & 63)
			}
		}
	}
}

// bracket sets w.lo[v] and w.hi[v], the bounds worstPairThroughput states
// on the flow from the lowest DC to the DC at position v under the
// worker's cut.
func (a *Auditor) bracket(w *worker, v int) {
	lo, hi := a.flow0[v], a.flow0[v]
	side := a.side0[v*a.sideWords : (v+1)*a.sideWords]
	for _, id := range w.ev.Cut.IDs() {
		if !w.lit(id) {
			continue
		}
		lo -= a.ductFlow0[v*len(w.arcs)+id]
		d := a.in.Map.Ducts[id]
		if side[d.A>>6]>>(d.A&63)&1 != side[d.B>>6]>>(d.B&63)&1 {
			hi -= float64(a.have[id] + a.residual[id])
		}
	}
	w.lo[v], w.hi[v] = lo, hi
}

// lit reports whether the ID is a duct the plan leased fiber on: one with
// arcs in the worker's network.
func (w *worker) lit(id int) bool {
	return id >= 0 && id < len(w.arcs) && w.arcs[id][0] >= 0
}

// setCutArcs takes the fiber of the ducts in the worker's cut out of its
// flow network, or puts it back.
func (a *Auditor) setCutArcs(w *worker, live bool) {
	for _, id := range w.ev.Cut.IDs() {
		if !w.lit(id) {
			continue
		}
		fiber := 0.0
		if live {
			fiber = float64(a.have[id] + a.residual[id])
		}
		w.net.SetCapacity(w.arcs[id][0], fiber)
		w.net.SetCapacity(w.arcs[id][1], fiber)
	}
}

// Run audits every scenario across the given number of workers (0 =
// GOMAXPROCS, 1 = serial). Results are in scenario order regardless of
// scheduling, and identical at every parallelism setting. Scenarios are
// handed out in the order of their duct sets, so one that extends the
// scenario its worker audited before keeps that scenario's frame and
// routes only what its own ducts add (plan.Evaluator.Route).
func (a *Auditor) Run(scenarios []Scenario, parallelism int) []Result {
	order := make([]int, len(scenarios))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(i, j int) int { return slices.Compare(scenarios[i].Ducts, scenarios[j].Ducts) })
	results := make([]Result, len(scenarios))
	_ = parallel.ForEach(len(order), parallelism, func(k int) error {
		i := order[k]
		results[i] = a.Audit(scenarios[i])
		return nil
	})
	return results
}

// CurvePoint aggregates the audits of all scenarios severing the same
// number of ducts — one point of a survivability curve.
type CurvePoint struct {
	Cuts       int `json:"cuts"`
	Scenarios  int `json:"scenarios"`
	Admissible int `json:"admissible"`
	Surviving  int `json:"surviving"`
}

// FracAdmissible is the fraction of scenarios at this cut count whose
// surviving pairs all fit the provisioned fiber.
func (p CurvePoint) FracAdmissible() float64 {
	if p.Scenarios == 0 {
		return 0
	}
	return float64(p.Admissible) / float64(p.Scenarios)
}

// FracSurviving is the fraction of scenarios at this cut count the region
// fully survives (admissible and no pair disconnected).
func (p CurvePoint) FracSurviving() float64 {
	if p.Scenarios == 0 {
		return 0
	}
	return float64(p.Surviving) / float64(p.Scenarios)
}

// Curve aggregates audit results into a survivability curve: one point
// per distinct cut count, ascending.
func Curve(results []Result) []CurvePoint {
	byCuts := make(map[int]*CurvePoint)
	for _, r := range results {
		p := byCuts[r.Cuts]
		if p == nil {
			p = &CurvePoint{Cuts: r.Cuts}
			byCuts[r.Cuts] = p
		}
		p.Scenarios++
		if r.Admissible {
			p.Admissible++
		}
		if r.Survives {
			p.Surviving++
		}
	}
	cuts := make([]int, 0, len(byCuts))
	for c := range byCuts {
		cuts = append(cuts, c)
	}
	sort.Ints(cuts)
	out := make([]CurvePoint, 0, len(cuts))
	for _, c := range cuts {
		out = append(out, *byCuts[c])
	}
	return out
}

// Summary is a one-line digest of a result set, for logs and CLIs.
func Summary(results []Result) string {
	adm, surv := 0, 0
	for _, r := range results {
		if r.Admissible {
			adm++
		}
		if r.Survives {
			surv++
		}
	}
	return fmt.Sprintf("%d scenarios: %d admissible (%.1f%%), %d surviving (%.1f%%)",
		len(results), adm, 100*float64(adm)/float64(max(len(results), 1)),
		surv, 100*float64(surv)/float64(max(len(results), 1)))
}
