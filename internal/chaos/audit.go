package chaos

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"iris/internal/graph"
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
// An Auditor is safe for concurrent Audit calls, each of which borrows an
// evaluator from a free list; Run fans scenarios out over a worker pool.
type Auditor struct {
	in plan.Input // the plan's input with Base pinned, for new evaluators

	// Plan-derived tables: by duct ID, and by the evaluator's pair index.
	have     []int     // base + cut-through fiber-pairs
	residual []int     // residual fiber-pairs
	baseKM   []float64 // failure-free path length, 0 for unrouted pairs

	mu   sync.Mutex
	free []*plan.Evaluator
}

// NewAuditor prepares an auditor for the given plan. The plan's base graph
// is rebuilt unless the plan's input carried one.
func NewAuditor(pl *plan.Plan) *Auditor {
	a := &Auditor{in: pl.Input}
	if a.in.Base == nil {
		a.in.Base = plan.BaseGraph(a.in.Map)
	}
	ev := plan.NewEvaluator(a.in)
	a.free = append(a.free, ev)

	nDucts := a.in.Base.MaxEdgeID() + 1
	a.have = make([]int, nDucts)
	a.residual = make([]int, nDucts)
	for id, du := range pl.Ducts {
		a.have[id] = du.BasePairs + du.CutThroughPairs
		a.residual[id] = du.ResidualPairs
	}
	a.baseKM = make([]float64, ev.NumPairs())
	for pair, info := range pl.Paths {
		if idx, ok := ev.PairIndex(pair); ok {
			a.baseKM[idx] = info.TotalKM
		}
	}
	return a
}

// evaluator borrows an evaluator; release returns it. Each keeps its own
// hose-load memo, which is a pure cache: results do not depend on which
// evaluator served a scenario.
func (a *Auditor) evaluator() *plan.Evaluator {
	a.mu.Lock()
	defer a.mu.Unlock()
	if n := len(a.free); n > 0 {
		ev := a.free[n-1]
		a.free = a.free[:n-1]
		return ev
	}
	return plan.NewEvaluator(a.in)
}

func (a *Auditor) release(ev *plan.Evaluator) {
	a.mu.Lock()
	a.free = append(a.free, ev)
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

// Audit replays one scenario against the plan.
func (a *Auditor) Audit(sc Scenario) Result {
	res := Result{Scenario: sc, Cuts: sc.CutCount(), MaxStretch: 1}
	ev := a.evaluator()
	defer a.release(ev)

	ev.Cut.Set(sc.Ducts)
	routes := ev.Route()
	res.DisconnectedPairs = ev.NumPairs() - len(routes)
	for i := range routes {
		r := &routes[i]
		if r.TotalKM > optics.MaxPathKM+1e-9 {
			res.SLAViolations++
		}
		if base := a.baseKM[r.PairIdx]; base > 0 {
			if s := r.TotalKM / base; s > res.MaxStretch {
				res.MaxStretch = s
			}
		}
	}
	res.DisconnectedDCs = strandedDCs(ev.DCs(), routes)

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
	res.WorstPairFibers = a.worstPairThroughput(ev.Cut, routes)
	return res
}

// strandedDCs returns the DCs outside the largest cluster the surviving
// routes connect, ascending. Ties go to the cluster holding the lowest DC
// ID, so the result is deterministic even for an even split.
func strandedDCs(dcs []int, routes []plan.Route) []int {
	// Union-find over DC positions; roots are the smallest position of
	// their cluster, which makes the tie-break below stable.
	n := len(dcs)
	parent := make([]int, 2*n)
	parent, size := parent[:n], parent[n:]
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for i := range routes {
		ra, rb := find(int(routes[i].I)), find(int(routes[i].J))
		if ra != rb {
			parent[max(ra, rb)] = min(ra, rb)
		}
	}
	for i := range parent {
		size[find(i)]++
	}
	best := 0
	for i := range parent { // ascending IDs: first max wins ties
		if r := find(i); size[r] > size[best] {
			best = r
		}
	}
	var out []int
	for i, dc := range dcs {
		if find(i) != best {
			out = append(out, dc)
		}
	}
	return out
}

// worstPairThroughput builds one flow network over the surviving
// provisioned ducts (arc capacity = total leased fiber-pairs, both
// directions, added in duct-ID order) and returns the minimum max-flow
// over the surviving pairs — the residual worst-pair throughput of the
// degraded region. The network is built once per scenario and Reset
// between per-pair runs.
func (a *Auditor) worstPairThroughput(cut *graph.Cut, routes []plan.Route) float64 {
	if len(routes) == 0 {
		return 0
	}
	m := a.in.Map
	f := graph.NewFlowNetwork(len(m.Nodes))
	for id, have := range a.have {
		total := have + a.residual[id]
		if total == 0 || cut.Has(id) {
			continue
		}
		d := m.Ducts[id]
		f.AddArc(d.A, d.B, float64(total))
		f.AddArc(d.B, d.A, float64(total))
	}
	worst := math.Inf(1)
	for i := range routes {
		if i > 0 {
			f.Reset()
		}
		if flow := f.MaxFlow(routes[i].Pair.A, routes[i].Pair.B); flow < worst {
			worst = flow
		}
	}
	return worst
}

// Run audits every scenario across the given number of workers (0 =
// GOMAXPROCS, 1 = serial). Results are in scenario order regardless of
// scheduling, and identical at every parallelism setting.
func (a *Auditor) Run(scenarios []Scenario, parallelism int) []Result {
	results := make([]Result, len(scenarios))
	_ = parallel.ForEach(len(scenarios), parallelism, func(i int) error {
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
