package plan

import (
	"fmt"
	"math/bits"
	"slices"
	"time"

	"iris/internal/fibermap"
	"iris/internal/graph"
	"iris/internal/hose"
)

// This file is the planner's arena: a Planner owns every slab the
// planning pipeline touches beyond the scenario evaluator's — amplifier
// candidates, cut-through identities, per-duct maxima, output maps — and
// reuses them across Plan calls, so a warmed solve performs no heap
// allocation. The generation-stamp idiom (a per-entry stamp compared
// against a run counter, with a touched list for sparse reset) comes
// from core's incremental AllocState and is applied to every per-
// scenario structure; set-valued keys that were formatted strings in
// the map-based planner (scenario cut sets, hose pair signatures,
// cut-through identities) are interned in seqIndex tables instead.

// seqIndex interns []int32 sequences: equal sequences get the same
// dense ID, assigned in first-seen order. Keys live in one flat slab
// and the hash table is open-addressed, so steady-state interning of a
// known sequence allocates nothing.
type seqIndex struct {
	slab  []int32 // concatenated keys, in ID order
	off   []int32 // off[id] = start of key id in slab
	table []int32 // open addressing; value is id+1, 0 means empty
}

func (s *seqIndex) reset() {
	s.slab = s.slab[:0]
	s.off = s.off[:0]
	clear(s.table)
}

// key returns the interned sequence for an ID. The slice aliases the
// slab and is invalidated by the next intern that grows it.
func (s *seqIndex) key(id int) []int32 {
	end := int32(len(s.slab))
	if id+1 < len(s.off) {
		end = s.off[id+1]
	}
	return s.slab[s.off[id]:end]
}

func hashSeq(key []int32) uint32 {
	h := uint64(14695981039346656037) // FNV-1a
	for _, v := range key {
		h ^= uint64(uint32(v))
		h *= 1099511628211
	}
	return uint32(h ^ h>>32)
}

// intern returns the ID for key, adding it if absent. added reports
// whether this call created the entry.
func (s *seqIndex) intern(key []int32) (id int, added bool) {
	if len(s.table) == 0 {
		s.table = make([]int32, 64)
	}
	if (len(s.off)+1)*4 >= len(s.table)*3 {
		s.grow()
	}
	mask := uint32(len(s.table) - 1)
	i := hashSeq(key) & mask
	for {
		v := s.table[i]
		if v == 0 {
			id = len(s.off)
			s.off = append(s.off, int32(len(s.slab)))
			s.slab = append(s.slab, key...)
			s.table[i] = int32(id + 1)
			return id, true
		}
		if id = int(v - 1); s.keyEqual(id, key) {
			return id, false
		}
		i = (i + 1) & mask
	}
}

func (s *seqIndex) keyEqual(id int, key []int32) bool {
	k := s.key(id)
	if len(k) != len(key) {
		return false
	}
	for i := range k {
		if k[i] != key[i] {
			return false
		}
	}
	return true
}

func (s *seqIndex) grow() {
	old := len(s.table)
	if old == 0 {
		old = 32
	}
	s.table = make([]int32, old*2)
	mask := uint32(len(s.table) - 1)
	for id := range s.off {
		i := hashSeq(s.key(id)) & mask
		for s.table[i] != 0 {
			i = (i + 1) & mask
		}
		s.table[i] = int32(id + 1)
	}
}

// swap16 reorders a value's low two bytes so that comparing swapped
// values reproduces byte-lexicographic order over the little-endian
// 16-bit packing the legacy string keys used. IDs above 65535 truncate
// exactly as the byte packing did.
func swap16(v int32) int32 { return (v&0xff)<<8 | (v>>8)&0xff }

// packedCmp orders two ID sequences the way their packed string keys
// sorted: element-wise on swapped 16-bit values, shorter prefix first.
// Cut-through selection and output ordering depend on it matching the
// historical order bit for bit.
func packedCmp(a, b []int32) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		av, bv := swap16(a[i]), swap16(b[i])
		if av != bv {
			if av < bv {
				return -1
			}
			return 1
		}
	}
	return len(a) - len(b)
}

// Planning-stage indices for the fixed timing accumulators, aligned
// with stageOrder.
const (
	stRoute = iota
	stAmps
	stCutthrough
	stProvision
	stTotal
	nStages
)

type slaRec struct {
	pair    hose.Pair
	totalKM float64
	cutOff  int32 // into slaCuts
	cutLen  int32
}

// ctIterCand is one candidate cut-through within a placement iteration;
// its identity (from, to, duct sequence) is the interned key, its
// interior nodes live in ctIterInterior.
type ctIterCand struct {
	intOff, intLen int32
}

// ctRec is a cut-through committed to the plan; duct and interior lists
// live in the planner's flat slabs until finish materialises them.
type ctRec struct {
	from, to         int
	ductOff, ductLen int32
	intOff, intLen   int32
	pairs            int
}

// Planner is a reusable arena-backed planning workspace. One Planner
// re-solving the same region (same Map, Base, capacities, failure
// tolerance and hubs) retains its hose-load memo, pair tables and
// shortest-path state between calls and plans without allocating; when
// any of those inputs change it transparently re-validates and rebuilds.
// Lambda and Span may vary freely between calls — neither affects the
// planning arena.
//
// The Plan returned by Plan aliases the workspace: its maps, slices and
// the structs they point to are overwritten by the next Plan call on
// the same Planner. Callers that need the previous result afterwards
// must use a fresh Planner (or the package-level New). A Planner is not
// safe for concurrent use; the fiber map and base graph must not be
// mutated between calls that expect reuse (mutation of Input.Map is not
// detected; growing the base graph is).
type Planner struct {
	in   Input
	plan Plan

	// Region-shaped state, rebuilt by prepare on fingerprint miss: the
	// scenario evaluator holds the DCs, hubs, routing state and the
	// hose-load memo (the dominant cross-solve win).
	prepared bool
	ev       *Evaluator

	// Fingerprint of the prepared region.
	fpMap      *fibermap.Map
	fpInBase   *graph.Graph // Input.Base as passed (nil if planner-built)
	fpNumEdges int
	fpMaxFail  int
	fpCaps     []int // per DC position

	// Scenario enumeration over ev.Cut.
	seen    seqIndex
	usedBuf [][]int32 // per DFS depth

	recs   []pathRec // recs[i] wraps the evaluator's slot of pair i
	marked []int32   // the recs the last scenario's optical decisions touched
	idxBuf []int32
	// openOSS is scratch over pair indices: the paths cut-through
	// placement opens by checking.
	openOSS []uint64

	// Amplifier placement scratch (per node).
	pend        []int32
	candOf      [][]int32
	candGen     []uint32
	candSeq     uint32
	candNodes   []int32
	ampsArr     []int
	ampsTouched []int32

	// Cut-through placement.
	ctIter         seqIndex
	ctIterCands    []ctIterCand
	ctIterInterior []int
	ctResolve      [][]int32
	ctAll          seqIndex
	ctRecs         []ctRec
	ctDuctSlab     []int
	ctIntSlab      []int
	ctOrder        []int32
	tmpKey         []int32
	tmpInterior    []int

	// Output arenas, handed to the Plan each solve.
	ductSlab   []DuctUse
	ductActive []bool
	ductList   []int32
	ductsOut   map[int]*DuctUse
	pathInfos  []PathInfo
	pathsOut   map[hose.Pair]*PathInfo
	ampsOut    map[int]int
	cutsOut    []CutThrough
	slaRecs    []slaRec
	slaCuts    []int
	slaOut     []SLAViolation
	stagesOut  []StageTiming
	stageDur   [nStages]time.Duration
	stageCalls [nStages]int
}

// NewPlanner returns an empty workspace; the first Plan call sizes it.
func NewPlanner() *Planner { return &Planner{} }

// Plan solves the input. See Planner for the aliasing and reuse
// contract; the semantics and output are identical to New's.
func (p *Planner) Plan(in Input) (*Plan, error) {
	t0 := time.Now()
	if !p.matches(in) {
		if err := in.validate(); err != nil {
			return nil, err
		}
		if err := p.prepare(in); err != nil {
			return nil, err
		}
	}
	p.resetSolve(in)
	if err := p.visit(0); err != nil {
		return nil, err
	}
	p.finish(t0)
	return &p.plan, nil
}

// matches reports whether the prepared arena fits the input, i.e. every
// input that shapes planning is unchanged since prepare. Lambda is
// excluded (validated but unused by planning); a non-positive Lambda
// still forces the miss path so Validate reports it.
func (p *Planner) matches(in Input) bool {
	if !p.prepared || in.Map != p.fpMap || in.Base != p.fpInBase ||
		in.MaxFailures != p.fpMaxFail || in.Lambda <= 0 {
		return false
	}
	if p.ev.base.NumEdges() != p.fpNumEdges {
		return false
	}
	if !slices.Equal(in.ViaHubs, p.ev.hubs) {
		return false
	}
	for i, dc := range p.ev.dcs {
		if c, ok := in.Capacity[dc]; !ok || c != p.fpCaps[i] {
			return false
		}
	}
	return true
}

// prepare sizes every slab for the (already validated) input's region
// and records its fingerprint. It is the only allocating path of a
// steady-state Planner.
func (p *Planner) prepare(in Input) error {
	p.prepared = false
	p.ev = newEvaluator(in)
	dcs, base := p.ev.dcs, p.ev.base

	// Reject regions that are disconnected even before any failure.
	// Connectivity is a property of the base graph, so the check belongs
	// to prepare: a fingerprint hit implies it already passed.
	labels := base.Components()
	for _, dc := range dcs[1:] {
		if labels[dc] != labels[dcs[0]] {
			return fmt.Errorf("plan: DCs %d and %d are not connected by usable ducts", dcs[0], dc)
		}
	}

	nNodes := base.NumNodes()
	nDucts := base.MaxEdgeID() + 1
	nPairs := p.ev.NumPairs()

	p.fpCaps = make([]int, len(dcs))
	for i, dc := range dcs {
		p.fpCaps[i] = in.Capacity[dc]
	}

	p.recs = make([]pathRec, nPairs)
	for i := range p.recs {
		p.recs[i] = pathRec{Route: &p.ev.routes[i], ampNode: -1}
	}
	p.marked = p.marked[:0]
	p.openOSS = make([]uint64, p.ev.words)

	p.candOf = make([][]int32, nNodes)
	p.candGen = make([]uint32, nNodes)
	p.candSeq = 0
	p.ampsArr = make([]int, nNodes)
	p.ampsTouched = p.ampsTouched[:0]

	p.ductSlab = make([]DuctUse, nDucts)
	p.ductActive = make([]bool, nDucts)
	p.ductList = p.ductList[:0]
	p.ductsOut = make(map[int]*DuctUse)
	p.pathInfos = make([]PathInfo, nPairs)
	p.pathsOut = make(map[hose.Pair]*PathInfo, nPairs)
	p.ampsOut = make(map[int]int)

	p.fpMap = in.Map
	p.fpInBase = in.Base
	p.fpNumEdges = base.NumEdges()
	p.fpMaxFail = in.MaxFailures
	p.prepared = true
	return nil
}

// resetSolve clears the per-solve state, touching only what the last
// solve used.
func (p *Planner) resetSolve(in Input) {
	p.in = in
	p.plan = Plan{Input: in, DCs: p.ev.dcs, memo: p.ev.memo}
	p.plan.Input.Base = p.ev.base
	for _, id := range p.ductList {
		p.ductActive[id] = false
		p.ductSlab[id] = DuctUse{}
	}
	p.ductList = p.ductList[:0]
	for _, v := range p.ampsTouched {
		p.ampsArr[v] = 0
	}
	p.ampsTouched = p.ampsTouched[:0]
	clear(p.ductsOut)
	clear(p.pathsOut)
	clear(p.ampsOut)
	p.cutsOut = p.cutsOut[:0]
	p.slaRecs = p.slaRecs[:0]
	p.slaCuts = p.slaCuts[:0]
	p.slaOut = p.slaOut[:0]
	p.stagesOut = p.stagesOut[:0]
	p.ctAll.reset()
	p.ctRecs = p.ctRecs[:0]
	p.ctDuctSlab = p.ctDuctSlab[:0]
	p.ctIntSlab = p.ctIntSlab[:0]
	p.seen.reset()
	// The DFS unwinds the cut in lockstep, but an errored solve may have
	// bailed mid-descent; clearing is cheap insurance.
	p.ev.Cut.Set(nil)
	for i := range p.stageDur {
		p.stageDur[i] = 0
		p.stageCalls[i] = 0
	}
}

// timeStage charges the stage with the time since start and returns now,
// the next stage's start: one clock read per stage boundary.
func (p *Planner) timeStage(stage int, start time.Time) time.Time {
	now := time.Now()
	p.stageDur[stage] += now.Sub(start)
	p.stageCalls[stage]++
	return now
}

// visit is the pruned scenario DFS: a cut of a duct no chosen path uses
// leaves every path — and hence all provisioning — unchanged, so only
// used ducts seed the next cut. With deterministic tie-breaking,
// removing an unused duct cannot alter which paths Dijkstra selects,
// making the pruning exact.
func (p *Planner) visit(depth int) error {
	p.tmpKey = p.tmpKey[:0]
	for _, d := range p.ev.Cut.IDs() {
		p.tmpKey = append(p.tmpKey, int32(d))
	}
	if _, added := p.seen.intern(p.tmpKey); !added {
		return nil
	}
	p.plan.NScena++
	for depth >= len(p.usedBuf) {
		p.usedBuf = append(p.usedBuf, nil)
	}
	used, err := p.scenario(p.usedBuf[depth][:0])
	p.usedBuf[depth] = used
	if err != nil {
		return err
	}
	if depth >= p.fpMaxFail {
		return nil
	}
	for _, d := range used {
		if p.ev.Cut.Has(int(d)) {
			continue
		}
		p.ev.Cut.Push(int(d))
		err := p.visit(depth + 1)
		p.ev.Cut.Pop(int(d))
		if err != nil {
			return err
		}
	}
	return nil
}

// scenario processes one failure scenario end to end: routing, amps,
// cut-throughs, capacity. It appends the IDs of the ducts some chosen path
// uses to used, ascending, which drives the pruned enumeration. No stage
// walks every pair: each opens from the routes the evaluator flagged, and
// the decisions the last scenario made are taken off the records it
// marked.
func (p *Planner) scenario(used []int32) ([]int32, error) {
	start := time.Now()
	p.ev.Route()
	recs := p.recs
	for _, ri := range p.marked {
		pr := &recs[ri]
		pr.ampNode = -1
		pr.bypass = pr.bypass[:0]
		pr.cutDucts = pr.cutDucts[:0]
	}
	p.marked = p.marked[:0]
	p.pend = appendPairs(p.pend[:0], p.ev.flaggedSet(overSLA))
	for _, ri := range p.pend {
		p.recordSLA(recs[ri].Pair, recs[ri].TotalKM)
	}
	start = p.timeStage(stRoute, start)

	if err := p.placeAmps(recs); err != nil {
		return used, err
	}
	start = p.timeStage(stAmps, start)

	if err := p.placeCutThroughs(recs); err != nil {
		return used, err
	}
	start = p.timeStage(stCutthrough, start)

	// Provisioning runs after cut-through placement: traffic on a
	// cut-through fiber does not also consume switched base capacity on
	// the ducts it bypasses (Evaluator.ride), but its residual fiber still
	// follows the full path. Per-duct maxima are taken against prior
	// scenarios. The loaded ducts are the used ones.
	for _, l := range p.ev.Load(nil, nil) {
		du := p.ductUse(l.Duct)
		du.BasePairs = max(du.BasePairs, l.BasePairs)
		du.ResidualPairs = max(du.ResidualPairs, l.ResidualPairs)
		used = append(used, int32(l.Duct))
	}
	p.timeStage(stProvision, start)
	if len(p.ev.Cut.IDs()) == 0 {
		p.recordBasePaths(recs)
	}
	return used, nil
}

// appendPairs appends the pair indices in a set over them, ascending.
func appendPairs(dst []int32, set []uint64) []int32 {
	for w, rest := range set {
		for ; rest != 0; rest &= rest - 1 {
			dst = append(dst, int32(w*64+bits.TrailingZeros64(rest)))
		}
	}
	return dst
}

func (p *Planner) recordSLA(pair hose.Pair, totalKM float64) {
	off := len(p.slaCuts)
	p.slaCuts = append(p.slaCuts, p.ev.Cut.IDs()...)
	p.slaRecs = append(p.slaRecs, slaRec{
		pair: pair, totalKM: totalKM, cutOff: int32(off), cutLen: int32(len(p.slaCuts) - off),
	})
}

func (p *Planner) ductUse(id int) *DuctUse {
	du := &p.ductSlab[id]
	if !p.ductActive[id] {
		p.ductActive[id] = true
		du.DuctID = id
		p.ductList = append(p.ductList, int32(id))
	}
	return du
}

// recordBasePaths captures the failure-free paths for circuit setup,
// copying out of the scenario recs (which later scenarios overwrite)
// into the per-pair PathInfo slab.
func (p *Planner) recordBasePaths(recs []pathRec) {
	for i := range recs {
		pr := &recs[i]
		if !pr.Routed() {
			continue
		}
		info := &p.pathInfos[pr.PairIdx]
		info.Pair = pr.Pair
		info.Nodes = append(info.Nodes[:0], pr.Nodes...)
		info.TotalKM = pr.TotalKM
		info.Ducts = info.Ducts[:0]
		for _, e := range pr.Ducts {
			info.Ducts = append(info.Ducts, e.ID)
		}
		info.AmpNodes = info.AmpNodes[:0]
		if pr.ampNode >= 0 {
			info.AmpNodes = append(info.AmpNodes, pr.ampNode)
		}
		info.Bypassed = append(info.Bypassed[:0], pr.bypass...)
		slices.Sort(info.Bypassed)
		info.CutDucts = append(info.CutDucts[:0], pr.cutDucts...)
		slices.Sort(info.CutDucts)
		p.pathsOut[pr.Pair] = info
	}
}

// finish freezes the solve into p.plan: output maps refilled from the
// touched lists, cut-throughs materialised in packed-key order, SLA
// records resolved against the (now stable) cut slab, and stage timings
// emitted in stageOrder.
func (p *Planner) finish(t0 time.Time) {
	for _, id := range p.ductList {
		p.ductsOut[int(id)] = &p.ductSlab[id]
	}
	p.plan.Ducts = p.ductsOut
	for _, v := range p.ampsTouched {
		p.ampsOut[int(v)] = p.ampsArr[v]
	}
	p.plan.Amps = p.ampsOut
	p.plan.Paths = p.pathsOut

	p.ctOrder = p.ctOrder[:0]
	for i := range p.ctRecs {
		p.ctOrder = append(p.ctOrder, int32(i))
	}
	// Insertion sort by packed key: cut-through counts are small and a
	// comparator closure would allocate.
	for i := 1; i < len(p.ctOrder); i++ {
		for j := i; j > 0 && packedCmp(p.ctAll.key(int(p.ctOrder[j])), p.ctAll.key(int(p.ctOrder[j-1]))) < 0; j-- {
			p.ctOrder[j], p.ctOrder[j-1] = p.ctOrder[j-1], p.ctOrder[j]
		}
	}
	for _, ci := range p.ctOrder {
		ct := &p.ctRecs[ci]
		p.cutsOut = append(p.cutsOut, CutThrough{
			From:     ct.from,
			To:       ct.to,
			Ducts:    p.ctDuctSlab[ct.ductOff : ct.ductOff+ct.ductLen],
			Interior: p.ctIntSlab[ct.intOff : ct.intOff+ct.intLen],
			Pairs:    ct.pairs,
		})
	}
	p.plan.Cuts = p.cutsOut

	for _, r := range p.slaRecs {
		p.slaOut = append(p.slaOut, SLAViolation{
			Pair: r.pair, Cuts: p.slaCuts[r.cutOff : r.cutOff+r.cutLen], TotalKM: r.totalKM,
		})
	}
	p.plan.SLA = p.slaOut

	p.stageDur[stTotal] = time.Since(t0)
	p.stageCalls[stTotal] = 1
	for i := 0; i < nStages; i++ {
		if p.stageCalls[i] > 0 {
			p.stagesOut = append(p.stagesOut, StageTiming{
				Stage: stageOrder[i], Duration: p.stageDur[i], Calls: p.stageCalls[i],
			})
		}
	}
	p.plan.Stages = p.stagesOut
	if p.in.Span != nil {
		for _, st := range p.plan.Stages {
			c := p.in.Span.Child(st.Stage)
			c.SetAttr(fmt.Sprintf("calls=%d", st.Calls))
			c.FinishAs(t0, st.Duration)
		}
	}
}
