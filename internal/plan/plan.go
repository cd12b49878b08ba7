// Package plan implements Iris network planning (§4 of the paper): given a
// region's fiber map, DC capacities, and a failure tolerance, it decides
// the topology (which ducts and huts are used), the fiber capacity of every
// duct, and the optical equipment — amplifiers and cut-through links —
// needed to satisfy the technology constraints TC1–TC4 on every end-to-end
// path in every failure scenario.
//
// The planning pipeline is:
//
//  1. Algorithm 1 (§4.1): enumerate failure scenarios (all duct-cut subsets
//     up to the tolerance), route every DC pair on its shortest surviving
//     path, and provision each duct for the worst-case hose-model load it
//     sees in any scenario.
//  2. Residual fibers (§4.3): fiber-granularity switching needs one extra
//     fiber-pair per DC pair to absorb fractional wavelength demands; these
//     follow each pair's path in every scenario.
//  3. Algorithm 2 (Appendix A): greedily place amplifiers so every path
//     segment's optical loss fits one amplifier's gain.
//  4. Cut-through links (Appendix A): greedily replace switched hops with
//     uninterrupted fiber where paths still violate the power or
//     reconfiguration budgets.
package plan

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"iris/internal/fibermap"
	"iris/internal/graph"
	"iris/internal/hose"
	"iris/internal/optics"
	"iris/internal/trace"
)

// Input is the planning problem statement.
type Input struct {
	Map *fibermap.Map
	// Capacity maps DC node ID to its hose capacity in fiber-pairs (the
	// paper's f). A DC of capacity f sources at most f·λ wavelengths.
	Capacity map[int]int
	// Lambda is the number of wavelengths per fiber (40 or 64).
	Lambda int
	// MaxFailures is the number of simultaneous duct cuts to survive
	// (OC4; the paper's operational default is 2).
	MaxFailures int
	// ViaHubs, when non-empty, plans the centralized design instead of
	// the distributed one: every DC pair routes through whichever listed
	// hub gives the shorter DC-hub-DC fiber path (§2's hub-and-spoke
	// model, with two hubs in practice). Empty means distributed
	// shortest-path routing (OC3).
	ViaHubs []int
	// Base optionally supplies the usable-duct graph of Map, as built by
	// BaseGraph. Sharing one Base across several plan calls on the same
	// map (e.g. a sweep over capacities and wavelengths, or the paired
	// k-failure/0-failure plans of the cost evaluation) lets the graph's
	// memoised shortest-path trees be computed once instead of per call.
	// Nil means the planner builds its own. The graph must not be mutated
	// while shared.
	Base *graph.Graph
	// Span, when non-nil, receives one child span per planning stage
	// (route, amps, cutthrough, provision, total), with durations
	// aggregated across every failure scenario examined. Nil disables
	// span recording; Plan.Stages is populated either way.
	Span *trace.Span
}

// validate reports the first problem with the input.
func (in Input) validate() error {
	if in.Map == nil {
		return fmt.Errorf("plan: nil fiber map")
	}
	if err := in.Map.Validate(); err != nil {
		return err
	}
	dcs := in.Map.DCs()
	if len(dcs) < 2 {
		return fmt.Errorf("plan: need at least 2 DCs, have %d", len(dcs))
	}
	for _, dc := range dcs {
		c, ok := in.Capacity[dc]
		if !ok {
			return fmt.Errorf("plan: no capacity for DC %d", dc)
		}
		if c <= 0 {
			return fmt.Errorf("plan: DC %d has non-positive capacity %d", dc, c)
		}
	}
	if in.Lambda <= 0 {
		return fmt.Errorf("plan: lambda must be positive, got %d", in.Lambda)
	}
	if in.MaxFailures < 0 {
		return fmt.Errorf("plan: negative failure tolerance %d", in.MaxFailures)
	}
	for _, h := range in.ViaHubs {
		if h < 0 || h >= len(in.Map.Nodes) {
			return fmt.Errorf("plan: hub node %d out of range", h)
		}
		if in.Map.Nodes[h].Kind != fibermap.Hut {
			return fmt.Errorf("plan: hub node %d is not a hut", h)
		}
	}
	if in.Base != nil && in.Base.NumNodes() != len(in.Map.Nodes) {
		return fmt.Errorf("plan: base graph has %d nodes, map has %d",
			in.Base.NumNodes(), len(in.Map.Nodes))
	}
	return nil
}

// BaseGraph builds the planner's working graph for a fiber map: every
// duct short enough to be used point-to-point (§4.1 excludes ducts beyond
// the unamplified span limit outright), with duct IDs as edge IDs. Pass
// the result as Input.Base to share it — and its memoised shortest-path
// trees — across plan calls on the same map.
func BaseGraph(m *fibermap.Map) *graph.Graph {
	g := graph.New(len(m.Nodes))
	for _, d := range m.Ducts {
		if d.FiberKM <= optics.MaxSpanKM {
			g.AddEdge(d.ID, d.A, d.B, d.FiberKM)
		}
	}
	return g
}

// DuctUse is the provisioning decision for one fiber duct.
type DuctUse struct {
	DuctID int
	// BasePairs is the hose-model capacity from Algorithm 1, in
	// fiber-pairs: the worst-case integer wavelength demand divided by λ,
	// maximised over failure scenarios.
	BasePairs int
	// ResidualPairs is the §4.3 fiber-switching overhead: one pair per DC
	// pair routed over this duct, maximised over failure scenarios.
	ResidualPairs int
	// CutThroughPairs is fiber leased in this duct by cut-through links.
	CutThroughPairs int
}

// TotalPairs is the number of fiber-pairs leased in the duct.
func (d DuctUse) TotalPairs() int { return d.BasePairs + d.ResidualPairs + d.CutThroughPairs }

// CutThrough is an uninterrupted fiber run bypassing the optical switches
// at the interior nodes of a path segment (Appendix A).
type CutThrough struct {
	From, To int   // endpoint nodes (switched at these, not between)
	Ducts    []int // duct IDs traversed, in order
	Interior []int // interior nodes whose OSS the link bypasses
	Pairs    int   // fiber-pairs provisioned on the link
}

// PathInfo describes the shortest path of one DC pair in the failure-free
// topology, as used for circuit setup.
type PathInfo struct {
	Pair    hose.Pair
	Nodes   []int
	Ducts   []int
	TotalKM float64
	// AmpNodes lists intermediate nodes whose amplifier this path uses.
	AmpNodes []int
	// Bypassed lists intermediate nodes whose OSS the path skips via a
	// cut-through.
	Bypassed []int
	// CutDucts lists ducts where this pair's traffic rides a cut-through
	// fiber instead of switched base capacity.
	CutDucts []int
}

// SLAViolation records a DC pair whose surviving shortest path exceeds the
// SLA distance in some failure scenario. Planning continues — the capacity
// is still provisioned — but operators need to know the SLA is at risk.
type SLAViolation struct {
	Pair    hose.Pair
	Cuts    []int // duct IDs cut in the scenario
	TotalKM float64
}

// StageTiming is the accumulated latency of one Algorithm-1 planning
// stage, summed across every failure scenario the planner examined.
type StageTiming struct {
	Stage    string
	Duration time.Duration
	// Calls is how many scenario invocations the duration aggregates.
	Calls int
}

// stageOrder fixes the reporting order of Plan.Stages (pipeline order,
// then the end-to-end total).
var stageOrder = []string{"route", "amps", "cutthrough", "provision", "total"}

// Plan is the planner output.
//
// A Plan produced by New owns its storage and stays valid indefinitely.
// A Plan produced by a reused Planner aliases the planner's arena: it is
// valid until that planner's next Plan call (see Planner).
type Plan struct {
	// Input is the input planned, with Base set to the graph planning ran
	// on: the caller's, or the one the planner built.
	Input Input
	// DCs lists the region's DC node IDs in ascending order, as planning
	// saw them. Cost models iterate it instead of re-deriving the list
	// from the map.
	DCs    []int
	Ducts  map[int]*DuctUse // keyed by duct ID; only ducts with any use
	Paths  map[hose.Pair]*PathInfo
	Amps   map[int]int // node ID -> amplifier count
	Cuts   []CutThrough
	SLA    []SLAViolation
	Viol   []string // residual optical violations (empty when planning succeeded)
	NScena int      // failure scenarios examined
	// Stages holds per-stage planner timings in stageOrder, feeding the
	// iris_plan_stage_seconds telemetry histograms.
	Stages []StageTiming

	memo *hoseMemo // the planner evaluator's, as planning left it
}

// NewEvaluator returns an evaluator of the plan's region that starts from
// what planning built: the graph the plan was routed on (Input.Base), with
// the failure-free trees planning memoised there, and a copy of the
// hose-load memo planning filled. The copy is taken now, so the evaluator
// outlives the Plan of a reused Planner. pl must come from a Planner (or
// New).
func (pl *Plan) NewEvaluator() *Evaluator {
	ev := newEvaluator(pl.Input)
	ev.memo = pl.memo.clone()
	return ev
}

// New plans a region. It returns an error for invalid input or if the
// fiber map cannot satisfy the constraints at all (e.g. a DC pair whose
// only paths exceed the amplifier budget).
//
// New is the one-shot form of Planner: it runs a fresh workspace and
// never reuses it, so the returned Plan owns its storage. Callers that
// plan repeatedly should hold a Planner and amortize the arena instead.
func New(in Input) (*Plan, error) {
	return NewPlanner().Plan(in)
}

// pathRec is the planner's per-scenario record for one DC pair: the
// evaluator's route plus the optical decisions Algorithm 2 and cut-through
// placement make for it. Its slices live in the planner arena and are
// truncated, not reallocated, between scenarios.
type pathRec struct {
	*Route
	ampNode int   // node carrying this path's inline amplifier, or -1
	bypass  []int // interior nodes bypassed by a cut-through (unordered, unique)
	// cutDucts lists the ducts on which the pair rides a cut-through fiber
	// (unordered, unique); each is also a rider of the evaluator's Load.
	cutDucts []int
}

func (pr *pathRec) bypassed(v int) bool {
	return slices.Contains(pr.bypass, v)
}

func (pr *pathRec) onCutThrough(duct int) bool {
	return slices.Contains(pr.cutDucts, duct)
}

// TotalFiberPairs returns the region-wide number of leased fiber-pairs.
func (pl *Plan) TotalFiberPairs() int {
	total := 0
	for _, du := range pl.Ducts {
		total += du.TotalPairs()
	}
	return total
}

// BaseFiberPairs returns the fiber-pairs provisioned by Algorithm 1 alone,
// which is exactly the fiber an electrical packet-switched design leases.
func (pl *Plan) BaseFiberPairs() int {
	total := 0
	for _, du := range pl.Ducts {
		total += du.BasePairs
	}
	return total
}

// TotalAmps returns the number of amplifiers placed in the network.
func (pl *Plan) TotalAmps() int {
	total := 0
	for _, n := range pl.Amps {
		total += n
	}
	return total
}

// UsedHuts returns the hut nodes that terminate at least one provisioned
// duct; huts with no capacity are simply not part of the topology (§4.1).
func (pl *Plan) UsedHuts() []int {
	used := make(map[int]bool)
	for id, du := range pl.Ducts {
		if du.TotalPairs() == 0 {
			continue
		}
		d := pl.Input.Map.Ducts[id]
		for _, n := range []int{d.A, d.B} {
			if pl.Input.Map.Nodes[n].Kind == fibermap.Hut {
				used[n] = true
			}
		}
	}
	huts := make([]int, 0, len(used))
	for h := range used {
		huts = append(huts, h)
	}
	sort.Ints(huts)
	return huts
}
