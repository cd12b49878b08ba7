package chaos

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"iris/internal/fibermap"
	"iris/internal/graph"
	"iris/internal/hose"
	"iris/internal/optics"
	"iris/internal/plan"
)

// refAuditor is the reference implementation of Audit, kept as the oracle
// the production auditor is proved bit-identical against: per scenario it
// materialises the degraded graph (WithoutEdges), routes on its memoised
// Dijkstra trees, collects crossings in maps and calls hose.WorstCaseLoad
// on map-keyed capacities — none of which the plan.Evaluator path shares.
// Serial use only.
type refAuditor struct {
	pl     *plan.Plan
	base   *graph.Graph
	dcs    []int
	caps   map[int]float64
	baseKM map[hose.Pair]float64 // failure-free path length per pair

	havePairs map[int]int // duct -> base + cut-through fiber-pairs
	residual  map[int]int // duct -> residual fiber-pairs
	loads     map[string]float64
}

func newRefAuditor(pl *plan.Plan) *refAuditor {
	a := &refAuditor{
		pl:        pl,
		base:      plan.BaseGraph(pl.Input.Map),
		dcs:       pl.Input.Map.DCs(),
		caps:      make(map[int]float64),
		baseKM:    make(map[hose.Pair]float64),
		havePairs: make(map[int]int),
		residual:  make(map[int]int),
		loads:     make(map[string]float64),
	}
	for _, dc := range a.dcs {
		a.caps[dc] = float64(pl.Input.Capacity[dc])
	}
	for id, du := range pl.Ducts {
		a.havePairs[id] = du.BasePairs + du.CutThroughPairs
		a.residual[id] = du.ResidualPairs
	}
	for pair, info := range pl.Paths {
		a.baseKM[pair] = info.TotalKM
	}
	return a
}

func (a *refAuditor) audit(sc Scenario) Result {
	res := Result{Scenario: sc, Cuts: sc.CutCount(), MaxStretch: 1}
	g := a.base
	if len(sc.Ducts) > 0 {
		g = a.base.WithoutEdges(sc.CutSet())
	}

	// Route every pair the way the planner does and collect per-duct
	// crossings (with multiplicity: centralized hub walks can cross a
	// duct twice).
	crossings := make(map[int]map[hose.Pair]int)
	residByDuct := make(map[int]int)
	connected := make([]hose.Pair, 0, len(a.dcs)*(len(a.dcs)-1)/2)

	record := func(pair hose.Pair, edges []graph.Edge, totalKM float64) {
		connected = append(connected, pair)
		for _, e := range edges {
			residByDuct[e.ID]++
			byPair := crossings[e.ID]
			if byPair == nil {
				byPair = make(map[hose.Pair]int)
				crossings[e.ID] = byPair
			}
			byPair[pair]++
		}
		if totalKM > optics.MaxPathKM+1e-9 {
			res.SLAViolations++
		}
		if base, ok := a.baseKM[pair]; ok && base > 0 {
			if s := totalKM / base; s > res.MaxStretch {
				res.MaxStretch = s
			}
		}
	}

	if hubs := a.pl.Input.ViaHubs; len(hubs) > 0 {
		hubTrees := make(map[int]*graph.ShortestPathTree, len(hubs))
		for _, h := range hubs {
			hubTrees[h] = g.Dijkstra(h)
		}
		for i, x := range a.dcs {
			for _, y := range a.dcs[i+1:] {
				pair := hose.Pair{A: x, B: y}
				edges, total, ok := refBestHubWalk(hubTrees, hubs, x, y)
				if !ok {
					res.DisconnectedPairs++
					continue
				}
				record(pair, edges, total)
			}
		}
	} else {
		trees := make(map[int]*graph.ShortestPathTree, len(a.dcs))
		for _, dc := range a.dcs {
			trees[dc] = g.Dijkstra(dc)
		}
		for i, x := range a.dcs {
			for _, y := range a.dcs[i+1:] {
				pair := hose.Pair{A: x, B: y}
				_, edges, ok := trees[x].AppendPathTo(y, nil, nil)
				if !ok {
					res.DisconnectedPairs++
					continue
				}
				record(pair, edges, trees[x].Dist[y])
			}
		}
	}

	res.DisconnectedDCs = refStrandedDCs(a.dcs, connected)

	// Capacity check per crossed duct, mirroring the planner's
	// provisioning rule: worst-case hose load of the crossing pairs plus
	// the multi-crossing surcharge, against base + cut-through fiber.
	// Cut-through fiber counts because its riders are among the crossing
	// pairs and their load never exceeds the cut-through's provisioned
	// size (the b-matching LP is subadditive over pair-set unions).
	ductIDs := make([]int, 0, len(crossings))
	for id := range crossings {
		ductIDs = append(ductIDs, id)
	}
	sort.Ints(ductIDs)
	for _, id := range ductIDs {
		byPair := crossings[id]
		pairs := make([]hose.Pair, 0, len(byPair))
		extra := 0.0
		for pair, k := range byPair {
			pairs = append(pairs, pair)
			if k > 1 {
				extra += float64(k-1) * math.Min(a.caps[pair.A], a.caps[pair.B])
			}
		}
		need := int(math.Ceil(a.cachedLoad(pairs) + extra - 1e-9))
		if have := a.havePairs[id]; need > have {
			res.Overloads = append(res.Overloads, Overload{DuctID: id, NeedPairs: need, HavePairs: have})
		}
		if n, have := residByDuct[id], a.residual[id]; n > have {
			res.ResidualOverloads = append(res.ResidualOverloads, Overload{DuctID: id, NeedPairs: n, HavePairs: have})
		}
	}

	res.Admissible = len(res.Overloads) == 0 && len(res.ResidualOverloads) == 0
	res.Survives = res.Admissible && res.DisconnectedPairs == 0
	res.WorstPairFibers = a.worstPairThroughput(sc.CutSet(), connected)
	return res
}

// refStrandedDCs returns the DCs outside the largest cluster the surviving
// pairs connect, sorted ascending. Ties go to the cluster holding the
// lowest DC ID, so the result is deterministic even for an even split.
func refStrandedDCs(dcs []int, pairs []hose.Pair) []int {
	parent := make(map[int]int, len(dcs))
	for _, dc := range dcs {
		parent[dc] = dc
	}
	var find func(int) int
	find = func(x int) int {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	for _, p := range pairs {
		ra, rb := find(p.A), find(p.B)
		if ra != rb {
			// Root at the smaller ID so the tie-break below is stable.
			if ra > rb {
				ra, rb = rb, ra
			}
			parent[rb] = ra
		}
	}
	size := make(map[int]int)
	for _, dc := range dcs {
		size[find(dc)]++
	}
	best := -1
	for _, dc := range dcs { // ascending IDs: first max wins ties
		if r := find(dc); size[r] > 0 && (best == -1 || size[r] > size[best]) {
			best = r
		}
	}
	var out []int
	for _, dc := range dcs {
		if find(dc) != best {
			out = append(out, dc)
		}
	}
	sort.Ints(out)
	return out
}

// refBestHubWalk mirrors the planner's centralized routing: the shortest
// DC-hub-DC walk over the given hubs, whose legs may share ducts.
func refBestHubWalk(trees map[int]*graph.ShortestPathTree, hubs []int, a, b int) (edges []graph.Edge, total float64, ok bool) {
	best := graph.Inf
	for _, h := range hubs {
		t := trees[h]
		d := t.Dist[a] + t.Dist[b]
		if d >= best || d >= graph.Inf {
			continue
		}
		_, edgesA, okA := t.AppendPathTo(a, nil, nil)
		_, edgesB, okB := t.AppendPathTo(b, nil, nil)
		if !okA || !okB {
			continue
		}
		es := make([]graph.Edge, 0, len(edgesA)+len(edgesB))
		for i := len(edgesA) - 1; i >= 0; i-- {
			es = append(es, edgesA[i])
		}
		es = append(es, edgesB...)
		edges, total, ok = es, d, true
		best = d
	}
	return edges, total, ok
}

// worstPairThroughput builds one flow network over the surviving
// provisioned ducts (arc capacity = total leased fiber-pairs, both
// directions) and returns the minimum max-flow over the surviving pairs —
// the residual worst-pair throughput of the degraded region. The network
// is built once per scenario and Reset between per-pair runs.
func (a *refAuditor) worstPairThroughput(cut map[int]bool, pairs []hose.Pair) float64 {
	if len(pairs) == 0 {
		return 0
	}
	f := graph.NewFlowNetwork(len(a.pl.Input.Map.Nodes))
	for id, have := range a.havePairs {
		total := have + a.residual[id]
		if total == 0 || cut[id] {
			continue
		}
		d := a.pl.Input.Map.Ducts[id]
		f.AddArc(d.A, d.B, float64(total))
		f.AddArc(d.B, d.A, float64(total))
	}
	worst := math.Inf(1)
	for i, pair := range pairs {
		if i > 0 {
			f.Reset()
		}
		if flow := f.MaxFlow(pair.A, pair.B); flow < worst {
			worst = flow
		}
	}
	return worst
}

// cachedLoad memoises hose.WorstCaseLoad over the plan's DC capacities,
// keyed by the sorted pair-set signature.
func (a *refAuditor) cachedLoad(pairs []hose.Pair) float64 {
	hose.SortPairs(pairs)
	key := make([]byte, 0, 4*len(pairs))
	for _, pr := range pairs {
		key = append(key,
			byte(pr.A), byte(pr.A>>8),
			byte(pr.B), byte(pr.B>>8))
	}
	if load, ok := a.loads[string(key)]; ok {
		return load
	}
	load := hose.WorstCaseLoad(a.caps, pairs)
	a.loads[string(key)] = load
	return load
}

// matchesReference audits the scenarios with the production auditor, at
// parallelism 1 and 4, and demands results deeply equal to the reference
// auditor's.
func matchesReference(t *testing.T, label string, pl *plan.Plan, scs []Scenario) {
	t.Helper()
	ref := newRefAuditor(pl)
	want := make([]Result, len(scs))
	for i, sc := range scs {
		want[i] = ref.audit(sc)
	}
	a := NewAuditor(pl)
	for _, par := range []int{1, 4} {
		got := a.Run(scs, par)
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("%s, parallelism %d, scenario %q:\n got %+v\nwant %+v",
					label, par, scs[i].Name, got[i], want[i])
			}
		}
	}
}

// TestAuditMatchesReference is the evaluator's bit-identity gate: on the
// toy region exhaustively, on the 20-DC generated region the benchmark
// plans (every single cut plus 200 sampled doubles, and what exceeds the
// planned tolerance — 100 sampled triples, the site-loss classes and geo
// events — where the worst-pair bounds are loosest), on two 16-DC regions
// (singles and 200 doubles), and on a via-hub plan whose walks
// double-cross ducts, Auditor.Run equals the reference.
func TestAuditMatchesReference(t *testing.T) {
	toy, dep := toyRegion(t, 2)
	matchesReference(t, "toy", dep.Plan, EnumerateCuts(toy.Map, 2))

	dep = planSynthetic(t, 1, 20, 2)
	m := dep.Region.Map
	scs := EnumerateCuts(m, 1)
	scs = append(scs, SampleCuts(1, m, 2, 200)...)
	scs = append(scs, HutLossScenarios(m)...)
	scs = append(scs, DCLossScenarios(m)...)
	scs = append(scs, AmpFailureScenarios(dep.Plan)...)
	scs = append(scs, SampleCuts(1, m, 3, 100)...)
	scs = append(scs, GeoEvents(1, m, 6, 20)...)
	matchesReference(t, "seed-1 20 DCs", dep.Plan, scs)

	for seed := int64(2); seed <= 3; seed++ {
		dep = planSynthetic(t, seed, 16, 2)
		m = dep.Region.Map
		matchesReference(t, fmt.Sprintf("seed-%d 16 DCs", seed), dep.Plan,
			append(EnumerateCuts(m, 1), SampleCuts(seed, m, 2, 200)...))
	}

	// A centralized plan whose DC-hub-DC walks cross some duct twice, so
	// the multi-crossing surcharge and residual multiplicity are compared.
	hubbed := planSynthetic(t, 2, 5, 0).Region
	h1, h2 := fibermap.ChooseHubs(hubbed.Map, 5)
	hubPlan, err := plan.New(plan.Input{
		Map: hubbed.Map, Capacity: hubbed.Capacity, Lambda: 40, MaxFailures: 1, ViaHubs: []int{h1, h2},
	})
	if err != nil {
		t.Fatal(err)
	}
	doubled := false
	for _, info := range hubPlan.Paths {
		seen := make(map[int]bool)
		for _, d := range info.Ducts {
			doubled = doubled || seen[d]
			seen[d] = true
		}
	}
	if !doubled {
		t.Fatal("no via-hub walk crosses a duct twice; the case does not cover multiplicity")
	}
	matchesReference(t, "via-hub", hubPlan, EnumerateCuts(hubbed.Map, 2))
}

// TestAuditMatchesReferenceAcrossClusters audits a cut that leaves two
// clusters of several DCs each and one DC on its own, between ordinary
// scenarios on the same worker: the worst-pair step then runs from one
// fixed source per cluster on a network whose cut arcs the scenario
// before put back, and must still equal the reference's minimum over
// every surviving pair.
func TestAuditMatchesReferenceAcrossClusters(t *testing.T) {
	dep := planSynthetic(t, 1, 20, 2)
	m := dep.Region.Map
	base := plan.BaseGraph(m)
	dcs := m.DCs()

	// One side of the split is everything west of the median DC; every
	// duct crossing that line is cut, and so is every duct of the last DC.
	xs := make([]float64, len(dcs))
	for i, dc := range dcs {
		xs[i] = m.Nodes[dc].Pos.X
	}
	sort.Float64s(xs)
	near := make([]bool, base.NumNodes())
	for v := range near {
		near[v] = m.Nodes[v].Pos.X < xs[len(xs)/2]
	}
	alone := dcs[len(dcs)-1]
	var ducts []int
	for _, e := range base.Edges() {
		if near[e.U] != near[e.V] || e.U == alone || e.V == alone {
			ducts = append(ducts, e.ID)
		}
	}
	split := Cut(ducts...)

	cut := graph.NewCut(base)
	cut.Set(split.Ducts)
	labels := base.ComponentsInto(cut.Skip(), nil)
	perCluster := make(map[int]int)
	for _, dc := range dcs {
		perCluster[labels[dc]]++
	}
	several, single := 0, 0
	for _, n := range perCluster {
		if n >= 2 {
			several++
		} else {
			single++
		}
	}
	if several < 2 || single < 1 {
		t.Fatalf("the cut leaves DC clusters of sizes %v; the case wants two of several DCs and a single one", perCluster)
	}

	singles := EnumerateCuts(m, 1)
	matchesReference(t, "clusters", dep.Plan, []Scenario{
		singles[1], split, singles[2], Cut(), split, Cut(split.Ducts[:len(split.Ducts)/2]...),
	})
	if res := NewAuditor(dep.Plan).Audit(split); res.WorstPairFibers <= 0 || len(res.DisconnectedDCs) == 0 {
		t.Fatalf("split audit: worst pair %v, stranded %v; want flow inside the clusters and DCs outside the largest",
			res.WorstPairFibers, res.DisconnectedDCs)
	}
}
