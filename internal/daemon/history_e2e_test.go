package daemon

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"iris/internal/chaos"
	"iris/internal/core"
	"iris/internal/fabric"
	"iris/internal/fibermap"
	"iris/internal/graph"
	"iris/internal/history"
	"iris/internal/hose"
	"iris/internal/plan"
	"iris/internal/telemetry"
	"iris/internal/topoapi"
	"iris/internal/trace"
	"iris/internal/traffic"
	"iris/internal/traffic/traffictest"
)

// historyRig is a chaos-armed toy region with a history lake, driven on a
// fake clock so the whole scenario is deterministic.
type historyRig struct {
	rig   *fabric.Rig
	d     *Daemon
	inj   *chaos.Injector
	lake  *history.Lake
	clock *fakeClock
}

// newHistoryRig brings up the toy region with a replay feed of the given
// (DC0-DC1, DC0-DC2) demand shifts.
func newHistoryRig(t *testing.T, shifts [][2]float64) *historyRig {
	t.Helper()
	devs := chaos.NewDeviceSet()
	rig := toyRig(t, func(cfg *fabric.BringUpConfig) { cfg.WrapDevice = devs.Wrap })

	clock := newFakeClock()
	tracer := trace.New(16384)
	reg := telemetry.NewRegistry()
	lake, err := history.New(history.Config{Capacity: 64, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	inj, err := chaos.NewInjector(chaos.InjectorConfig{
		Devices:  devs,
		Fab:      rig.Fab,
		Tracer:   tracer,
		Registry: reg,
		Now:      clock.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	mats := make([]*traffic.Matrix, len(shifts))
	for i, s := range shifts {
		mats[i] = toyMatrix(rig, s[0], s[1])
	}
	d, err := New(Config{
		Fab:              rig.Fab,
		Controller:       rig.Testbed.Controller,
		Feed:             traffictest.NewReplay(mats...),
		FailureThreshold: 2,
		BackoffBase:      100 * time.Millisecond,
		BackoffMax:       400 * time.Millisecond,
		Seed:             1,
		Registry:         reg,
		Now:              clock.Now,
		Logger:           testLogger(t),
		Tracer:           tracer,
		Chaos:            inj,
		History:          lake,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &historyRig{rig: rig, d: d, inj: inj, lake: lake, clock: clock}
}

// runCycle drives one full chaos cycle with the same history wiring the
// /debug/chaos/cycle endpoint uses, pumping the daemon on the fake clock.
func (h *historyRig) runCycle(t *testing.T, sc chaos.Scenario) *CycleResult {
	t.Helper()
	pump := func() {
		h.clock.advance(120 * time.Millisecond)
		h.d.ProbeOnce()
		st := h.d.Status()
		if st.Healthy && !st.NeedRepair {
			h.d.Step()
		}
	}
	res, err := h.d.chaosCycle(context.Background(), sc, CycleOptions{Pump: pump, Timeout: 20 * time.Second}, true)
	if err != nil {
		t.Fatalf("chaos cycle: %v", err)
	}
	return res
}

// replayCritical is the independent oracle for /api/critical: every cut
// set of at most k base-graph ducts materialised as a derived graph
// (graph.WithoutEdges), its components recomputed from scratch, and the
// demand of the pairs it splits summed in (A, B) order — the order the
// server documents, so sums compare exactly. It returns the duct IDs and,
// per duct, the worst stranded demand over the cut sets containing it and
// the demand stranded by cutting it alone.
func replayCritical(base *graph.Graph, demand map[hose.Pair]float64, k int) (ids []int, worst, solo map[int]float64) {
	for _, e := range base.Edges() {
		ids = append(ids, e.ID)
	}
	pairs := make([]hose.Pair, 0, len(demand))
	for p := range demand {
		pairs = append(pairs, p)
	}
	hose.SortPairs(pairs)
	worst = make(map[int]float64)
	solo = make(map[int]float64)
	graph.FailureScenarios(ids, k, func(cut []int) {
		if len(cut) == 0 {
			return
		}
		set := make(map[int]bool, len(cut))
		for _, id := range cut {
			set[id] = true
		}
		comps := base.WithoutEdges(set).Components()
		stranded := 0.0
		for _, p := range pairs {
			if comps[p.A] != comps[p.B] {
				stranded += demand[p]
			}
		}
		for _, id := range cut {
			if stranded > worst[id] {
				worst[id] = stranded
			}
			if len(cut) == 1 {
				solo[id] = stranded
			}
		}
	})
	return ids, worst, solo
}

// TestCriticalMatchesReplayK2 holds /api/critical?k=2 to the replay oracle
// on the benchmark's region (seed-1 map, 20 DCs, heavy-tailed demand at
// 0.7): every duct's stranded and solo-stranded demand must equal the
// replay's exactly. The server is a bare topoapi.Server over a static
// snapshot; the test lives here to share the oracle with
// TestHistoryTimeTravel.
func TestCriticalMatchesReplayK2(t *testing.T) {
	m, err := fibermap.Spec{Seed: 1, DCs: 20}.Map()
	if err != nil {
		t.Fatal(err)
	}
	dep, err := core.Plan(core.UniformRegion(m, 16, 40), core.Options{MaxFailures: 0})
	if err != nil {
		t.Fatal(err)
	}
	demand := traffic.HeavyTailed(rand.New(rand.NewSource(1)), m.DCs(), dep.Region.HoseCaps(), 0.7).Demand
	mux := http.NewServeMux()
	snap := &topoapi.Snapshot{Dep: dep, Demand: topoapi.SortedDemand(demand)}
	topoapi.New(topoapi.Config{State: func() *topoapi.Snapshot { return snap }}).Register(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	var crit struct {
		Ducts []struct {
			Duct           int     `json:"duct"`
			StrandedDemand float64 `json:"stranded_demand"`
			SoloStranded   float64 `json:"solo_stranded"`
		} `json:"ducts"`
	}
	apiGet(t, srv, "/api/critical?k=2", &crit)
	ids, worst, solo := replayCritical(plan.BaseGraph(m), demand, 2)
	if len(crit.Ducts) != len(ids) {
		t.Fatalf("critical lists %d ducts, want %d", len(crit.Ducts), len(ids))
	}
	stranding := 0
	for _, d := range crit.Ducts {
		if d.StrandedDemand != worst[d.Duct] || d.SoloStranded != solo[d.Duct] {
			t.Errorf("duct %d strands (%v, solo %v); replay says (%v, solo %v)",
				d.Duct, d.StrandedDemand, d.SoloStranded, worst[d.Duct], solo[d.Duct])
		}
		if d.StrandedDemand > 0 {
			stranding++
		}
	}
	if stranding == 0 {
		t.Fatal("no cut set strands any demand; the comparison is vacuous")
	}
}

// apiGet decodes a JSON endpoint into out, failing on any non-200.
func apiGet(t *testing.T, srv *httptest.Server, path string, out any) {
	t.Helper()
	res, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != 200 {
		t.Fatalf("GET %s = %d, want 200", path, res.StatusCode)
	}
	if err := json.NewDecoder(res.Body).Decode(out); err != nil {
		t.Fatalf("decode %s: %v", path, err)
	}
}

func emptyAlloc() core.Allocation {
	return core.Allocation{Fibers: map[hose.Pair]int{}, Residual: map[hose.Pair]int{}}
}

// TestHistoryTimeTravel is the PR's acceptance scenario: drive traffic
// shifts and one chaos cycle through the daemon, then reconstruct the
// full reconfiguration sequence from /api/history alone — IDs, ordering,
// and alloc diffs composing, record by record, to the live committed
// allocation — and check /api/critical flags the duct whose exhaustive
// ≤k cut audit strands the most hose demand.
func TestHistoryTimeTravel(t *testing.T) {
	// Three pre-cycle shifts; the rest feed the chaos cycle's settle
	// phase and the post-cycle drain.
	shifts := [][2]float64{
		{60, 45}, {20, 95}, {80, 10},
		{30, 70}, {55, 25}, {65, 35}, {45, 60}, {70, 20},
	}
	const prelude = 3
	h := newHistoryRig(t, shifts)

	h.d.ProbeOnce()
	for i := 0; i < prelude; i++ {
		if done := h.d.Step(); done {
			t.Fatalf("feed exhausted after %d shifts", i)
		}
	}
	if got := h.lake.Len(); got != prelude {
		t.Fatalf("lake has %d records after %d shifts, want one per shift", got, prelude)
	}

	cycle := h.runCycle(t, chaos.Cut(hubDuctID(t, h.rig.Dep.Region.Map)))
	for !h.d.Step() {
	}

	srv := httptest.NewServer(h.d.Handler())
	defer srv.Close()

	// 1. The listing: every record, Seq-ordered, triggers as driven.
	var listing struct {
		Total   int               `json:"total"`
		Records []history.Summary `json:"records"`
	}
	apiGet(t, srv, "/api/history", &listing)
	if listing.Total != len(listing.Records) || listing.Total < prelude+1 {
		t.Fatalf("listing total=%d records=%d, want ≥%d", listing.Total, len(listing.Records), prelude+1)
	}
	chaosRecs := 0
	for i, s := range listing.Records {
		if i > 0 && s.Seq <= listing.Records[i-1].Seq {
			t.Fatalf("records not Seq-ordered at %d", i)
		}
		switch s.Trigger {
		case history.TriggerChaos:
			chaosRecs++
			if s.ReconfigID != cycle.TraceID {
				t.Errorf("chaos record id=%d, want cycle trace %d", s.ReconfigID, cycle.TraceID)
			}
			if s.PairsChanged == 0 || s.DuctsTouched == 0 {
				t.Errorf("chaos record has empty alloc diff: %+v", s)
			}
			if !s.PreHealth.Healthy || !s.PostHealth.Converged {
				t.Errorf("chaos record health bracket wrong: %+v", s)
			}
		case history.TriggerConverge:
			if i < prelude && s.Spans == 0 {
				t.Errorf("converge record %d captured no spans", s.ReconfigID)
			}
		}
	}
	if chaosRecs != 1 {
		t.Fatalf("listing has %d chaos-cycle records, want 1", chaosRecs)
	}

	// 2. Time travel: fetch each record's detail and compose the diffs in
	// Seq order from an empty allocation; the result must equal the live
	// committed allocation exactly.
	live, haveLive := h.d.CommittedAlloc()
	if !haveLive {
		t.Fatal("daemon has no committed allocation")
	}
	type detailResp struct {
		Record history.Record `json:"record"`
		Tree   []*trace.Node  `json:"tree"`
	}
	replayed := emptyAlloc()
	for _, s := range listing.Records {
		var detail detailResp
		apiGet(t, srv, "/api/history/"+strconv.FormatUint(s.ReconfigID, 10), &detail)
		if detail.Record.Seq != s.Seq {
			t.Fatalf("record %d: detail seq %d != listing seq %d", s.ReconfigID, detail.Record.Seq, s.Seq)
		}
		if len(detail.Record.Spans) > 0 && len(detail.Tree) == 0 {
			t.Fatalf("record %d has spans but no assembled tree", s.ReconfigID)
		}
		replayed = core.ApplyDeltas(replayed, detail.Record.Pairs)
	}
	if !replayed.Equal(live) {
		t.Fatalf("history replay diverged from live allocation:\nreplayed %+v\nlive     %+v", replayed, live)
	}

	// 3. The diff endpoint composes the same way: applying the first→last
	// net change to the first record's post state must land on the live
	// allocation.
	first, last := listing.Records[0], listing.Records[len(listing.Records)-1]
	var diff struct {
		Reconfigs []uint64         `json:"reconfigs"`
		Pairs     []core.PairDelta `json:"pairs"`
		Ducts     []core.DuctDelta `json:"ducts"`
	}
	apiGet(t, srv, "/api/history/diff?from="+strconv.FormatUint(first.ReconfigID, 10)+
		"&to="+strconv.FormatUint(last.ReconfigID, 10), &diff)
	if len(diff.Reconfigs) != listing.Total-1 {
		t.Fatalf("diff spans %d reconfigs, want %d", len(diff.Reconfigs), listing.Total-1)
	}
	var firstDetail detailResp
	apiGet(t, srv, "/api/history/"+strconv.FormatUint(first.ReconfigID, 10), &firstDetail)
	afterFirst := core.ApplyDeltas(emptyAlloc(), firstDetail.Record.Pairs)
	if !core.ApplyDeltas(afterFirst, diff.Pairs).Equal(live) {
		t.Fatal("diff endpoint's net pairs do not bridge the first record to the live allocation")
	}

	// 4. /api/critical's top duct is the one whose exhaustive ≤k cut audit
	// strands the most hose demand, computed independently here from the
	// live matrix.
	var crit struct {
		K     int `json:"k"`
		Ducts []struct {
			Duct           int     `json:"duct"`
			Bridge         bool    `json:"bridge"`
			StrandedDemand float64 `json:"stranded_demand"`
			SoloStranded   float64 `json:"solo_stranded"`
		} `json:"ducts"`
	}
	apiGet(t, srv, "/api/critical", &crit)
	m := h.rig.Dep.Region.Map
	base := plan.BaseGraph(m)
	if len(crit.Ducts) != base.NumEdges() {
		t.Fatalf("critical lists %d ducts, want %d", len(crit.Ducts), base.NumEdges())
	}

	ids, worst, solo := replayCritical(base, liveDemand(h.d), crit.K)
	wantStranded, wantSolo := 0.0, 0.0
	for _, id := range ids {
		if worst[id] > wantStranded || (worst[id] == wantStranded && solo[id] > wantSolo) {
			wantStranded, wantSolo = worst[id], solo[id]
		}
	}
	top := crit.Ducts[0]
	if top.StrandedDemand != wantStranded || top.SoloStranded != wantSolo {
		t.Fatalf("critical top duct %d strands (%v, solo %v); independent audit says (%v, solo %v)",
			top.Duct, top.StrandedDemand, top.SoloStranded, wantStranded, wantSolo)
	}
	if worst[top.Duct] != wantStranded || solo[top.Duct] != wantSolo {
		t.Fatalf("top duct %d does not achieve the worst audit outcome (%v, solo %v)",
			top.Duct, wantStranded, wantSolo)
	}
	if !top.Bridge {
		t.Error("toy-region top duct not flagged as a bridge (every toy duct is one)")
	}

	// 5. /api/paths serves k duct paths with per-hop occupancy for a live
	// DC pair.
	dcs := m.DCs()
	var paths struct {
		Paths []struct {
			Nodes []int   `json:"nodes"`
			KM    float64 `json:"km"`
			Hops  []struct {
				Duct             int `json:"duct"`
				ProvisionedPairs int `json:"provisioned_pairs"`
			} `json:"hops"`
		} `json:"paths"`
	}
	apiGet(t, srv, "/api/paths?from="+strconv.Itoa(dcs[0])+"&to="+strconv.Itoa(dcs[2])+"&k=3", &paths)
	if len(paths.Paths) == 0 {
		t.Fatal("no paths between live DCs")
	}
	for i, p := range paths.Paths {
		if len(p.Hops) != len(p.Nodes)-1 {
			t.Fatalf("path %d: %d hops for %d nodes", i, len(p.Hops), len(p.Nodes))
		}
		if i > 0 && p.KM < paths.Paths[i-1].KM {
			t.Fatalf("paths not sorted by length at %d", i)
		}
		for j, hop := range p.Hops {
			if hop.ProvisionedPairs <= 0 {
				t.Fatalf("path %d hop %d: duct %d has no provisioned fiber", i, j, hop.Duct)
			}
		}
	}

	// 6. /api/whatif on the healed hub cut: admissible (surviving pairs
	// still fit the fiber) but not fully survived on the tree-shaped toy.
	var whatif struct {
		Result struct {
			Admissible bool `json:"admissible"`
			Survives   bool `json:"survives"`
		} `json:"result"`
		StrandedDemand float64 `json:"stranded_demand"`
	}
	apiGet(t, srv, "/api/whatif?scenario=cut:"+strconv.Itoa(hubDuctID(t, m)), &whatif)
	if !whatif.Result.Admissible {
		t.Fatal("whatif: hub cut should leave surviving pairs admissible")
	}
	if whatif.Result.Survives {
		t.Fatal("whatif: hub cut of the tree-shaped toy cannot fully survive")
	}
}

// TestRepairEmitsHistoryRecord checks a repair pass lands in the lake as
// a TriggerRepair record with an empty alloc diff — it restores intent
// rather than changing it.
func TestRepairEmitsHistoryRecord(t *testing.T) {
	h := newHistoryRig(t, [][2]float64{{60, 45}})
	h.d.ProbeOnce()
	h.d.Step()
	before := h.lake.Len()

	if err := h.d.repair(); err != nil {
		t.Fatalf("repair: %v", err)
	}

	recs := h.lake.Records(0, math.MaxUint64)
	if len(recs) != before+1 {
		t.Fatalf("lake has %d records after repair, want %d", len(recs), before+1)
	}
	rec := recs[len(recs)-1]
	if rec.Trigger != history.TriggerRepair {
		t.Fatalf("last record trigger = %q, want %q", rec.Trigger, history.TriggerRepair)
	}
	if len(rec.Pairs) != 0 || len(rec.Ducts) != 0 {
		t.Errorf("repair record carries an alloc diff: %+v", rec)
	}
	if len(rec.Spans) == 0 {
		t.Error("repair record captured no spans")
	}
}

// TestHistoryPersistenceAcrossRestart drives shifts through a daemon
// persisting history, rebuilds the lake from the file, and checks the
// replayed records still compose to the committed allocation.
func TestHistoryPersistenceAcrossRestart(t *testing.T) {
	path := t.TempDir() + "/history.jsonl"
	rig := toyRig(t, nil)
	mats := []*traffic.Matrix{
		toyMatrix(rig, 60, 45), toyMatrix(rig, 20, 95), toyMatrix(rig, 80, 10),
	}
	lake, err := history.New(history.Config{Capacity: 32, Path: path})
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(Config{
		Fab:        rig.Fab,
		Controller: rig.Testbed.Controller,
		Feed:       traffictest.NewReplay(mats...),
		Logger:     testLogger(t),
		History:    lake,
	})
	if err != nil {
		t.Fatal(err)
	}
	for range mats {
		d.Step()
	}
	live, ok := d.CommittedAlloc()
	if !ok {
		t.Fatal("no committed allocation")
	}
	if err := lake.Close(); err != nil {
		t.Fatal(err)
	}

	reopened, err := history.New(history.Config{Capacity: 32, Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	recs := reopened.Records(0, math.MaxUint64)
	if len(recs) != len(mats) {
		t.Fatalf("replayed %d records, want %d", len(recs), len(mats))
	}
	replayed := emptyAlloc()
	for _, rec := range recs {
		replayed = core.ApplyDeltas(replayed, rec.Pairs)
	}
	if !replayed.Equal(live) {
		t.Fatal("records replayed from disk do not compose to the committed allocation")
	}
}

// TestHoseAggIsReproducible: a record's hose totals are summed in pair
// order, so evaluating one matrix twenty times gives one value, to the
// last bit (ranging the demand map gave several).
func TestHoseAggIsReproducible(t *testing.T) {
	dcs := make([]int, 20)
	caps := make(map[int]float64)
	for i := range dcs {
		dcs[i], caps[i] = i, 400
	}
	m := traffic.HeavyTailed(rand.New(rand.NewSource(5)), dcs, caps, 0.7)
	first := hoseAgg(m)
	if first.Pairs == 0 || first.Total <= first.MaxPair {
		t.Fatalf("degenerate aggregate %+v", first)
	}
	for i := 1; i < 20; i++ {
		if got := hoseAgg(m); got != first {
			t.Fatalf("evaluation %d = %+v, the first was %+v", i, got, first)
		}
	}
}
