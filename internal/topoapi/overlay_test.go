package topoapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"iris/internal/core"
	"iris/internal/fibermap"
	"iris/internal/geo"
	"iris/internal/graph"
	"iris/internal/hose"
	"iris/internal/plan"
)

// oracleCritical is /api/critical as it was answered before the cut
// overlay — one exhaustive enumeration and one max-flow per live pair,
// per request — kept as the reference the overlay must equal byte for
// byte. It shares only the row type with the server, and encodes its body
// as the endpoint first did, through json.Marshal of a map.
func oracleCritical(snap *Snapshot, k int) []byte {
	if k > 3 {
		k = 3
	}
	m := snap.Dep.Region.Map
	base := plan.BaseGraph(m)

	ids := make([]int, 0, base.NumEdges())
	rows := make(map[int]*criticalDuct, base.NumEdges())
	for _, e := range base.Edges() {
		ids = append(ids, e.ID)
		rows[e.ID] = &criticalDuct{Duct: e.ID, From: e.U, To: e.V, KM: e.W}
	}
	components := func(labels []int) int { return slices.Max(labels) + 1 }
	whole := components(base.Components())

	demand := snap.Demand
	cut := graph.NewCut(base)
	var labels []int
	graph.FailureScenarios(ids, k, func(set []int) {
		if len(set) == 0 {
			return
		}
		cut.Set(set)
		labels = base.ComponentsInto(cut.Skip(), labels)
		if len(set) == 1 && components(labels) > whole { // a bridge, by definition
			rows[set[0]].Bridge = true
		}
		stranded := 0.0
		for _, pd := range demand {
			if labels[pd.Pair.A] != labels[pd.Pair.B] {
				stranded += pd.Demand
			}
		}
		if stranded == 0 {
			return
		}
		for _, id := range set {
			row := rows[id]
			if stranded > row.StrandedDemand {
				row.StrandedDemand = stranded
			}
			if len(set) == 1 {
				row.SoloStranded = stranded
			}
		}
	})

	capByDuct := make(map[int]int, len(snap.Dep.Plan.Ducts))
	for id, du := range snap.Dep.Plan.Ducts {
		capByDuct[id] = du.TotalPairs()
	}
	var pairs []hose.Pair
	for _, pd := range demand {
		if pd.Demand > 0 {
			pairs = append(pairs, pd.Pair)
		}
	}
	if len(pairs) > 0 {
		f := graph.NewFlowNetwork(len(m.Nodes))
		for _, id := range ids {
			total := capByDuct[id]
			if total == 0 {
				continue
			}
			d := m.Ducts[id]
			f.AddArc(d.A, d.B, float64(total))
			f.AddArc(d.B, d.A, float64(total))
		}
		for i, p := range pairs {
			if i > 0 {
				f.Reset()
			}
			f.MaxFlow(p.A, p.B)
			seen := f.MinCutInto(p.A, nil)
			for _, id := range ids {
				if capByDuct[id] == 0 {
					continue
				}
				d := m.Ducts[id]
				if seen[d.A] != seen[d.B] {
					rows[id].MinCutPairs++
				}
			}
		}
	}

	out := make([]criticalDuct, 0, len(rows))
	for _, row := range rows {
		out = append(out, *row)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.StrandedDemand != b.StrandedDemand {
			return a.StrandedDemand > b.StrandedDemand
		}
		if a.SoloStranded != b.SoloStranded {
			return a.SoloStranded > b.SoloStranded
		}
		if a.MinCutPairs != b.MinCutPairs {
			return a.MinCutPairs > b.MinCutPairs
		}
		return a.Duct < b.Duct
	})
	body, _ := json.Marshal(map[string]any{"k": k, "ducts": out})
	return body
}

// randomRegion plans a small seeded region with what the bench region
// lacks: bridges (a spanning tree plus few extra ducts), a DC hanging
// off one duct, parallel ducts, a duct the plan leaves dark, sometimes a
// duct too long to be in the base graph — under a demand drawn with
// zero-demand and absent pairs.
func randomRegion(t *testing.T, seed int64) *Snapshot {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	m := &fibermap.Map{}
	n := 5 + rng.Intn(8)
	for i := 0; i < n; i++ {
		m.AddNode(fibermap.Hut, geo.Point{X: rng.Float64() * 30, Y: rng.Float64() * 30}, "")
	}
	for i := 1; i < n; i++ {
		m.AddDuct(rng.Intn(i), i, 1+rng.Float64()*20)
	}
	for extra := rng.Intn(n); extra > 0; extra-- {
		if a, b := rng.Intn(n), rng.Intn(n); a != b {
			m.AddDuct(a, b, 1+rng.Float64()*20)
		}
	}
	twin := m.Ducts[rng.Intn(len(m.Ducts))]
	m.AddDuct(twin.A, twin.B, twin.FiberKM+5) // parallel, and never on a shortest path: dark
	if seed%3 == 0 {
		m.AddDuct(0, n-1, 90) // beyond the unamplified span: not in the base graph
	}
	pendant := m.AddNode(fibermap.DC, geo.Point{X: 31, Y: 31}, "")
	m.AddDuct(rng.Intn(n), pendant, 3)
	for _, v := range rng.Perm(n)[:2+rng.Intn(3)] {
		m.Nodes[v].Kind = fibermap.DC
	}

	caps := make(map[int]int)
	for _, dc := range m.DCs() {
		caps[dc] = 4 + rng.Intn(12)
	}
	dep, err := core.Plan(core.Region{Map: m, Capacity: caps, Lambda: 40}, core.Options{MaxFailures: 0})
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	demand := make(map[hose.Pair]float64)
	dcs := m.DCs()
	for i, a := range dcs {
		for _, b := range dcs[i+1:] {
			switch rng.Intn(4) {
			case 0: // absent
			case 1:
				demand[hose.Pair{A: a, B: b}] = 0
			default:
				demand[hose.Pair{A: a, B: b}] = rng.Float64() * 300
			}
		}
	}
	return &Snapshot{Dep: dep, Demand: SortedDemand(demand)}
}

func get(tb testing.TB, h http.Handler, url string) []byte {
	tb.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, url, nil))
	if w.Code != http.StatusOK {
		tb.Errorf("GET %s = %d: %s", url, w.Code, w.Body)
	}
	return w.Body.Bytes()
}

// TestOverlayMatchesEnumeration holds /api/critical to the per-request
// enumeration it replaced, whole bodies byte for byte, over seeded random
// regions and k = 1, 2, 3; then checks what the server keeps follows the
// deployment and the live-pair list, and nothing else.
func TestOverlayMatchesEnumeration(t *testing.T) {
	var bridges, dark, stranding int
	for seed := int64(1); seed <= 60; seed++ {
		snap := randomRegion(t, seed)
		s := New(Config{State: func() *Snapshot { return snap }})
		mux := http.NewServeMux()
		s.Register(mux)
		check := func(what string) {
			t.Helper()
			for k := 1; k <= 3; k++ {
				got, want := get(t, mux, fmt.Sprintf("/api/critical?k=%d", k)), oracleCritical(snap, k)
				if !bytes.Equal(got, want) {
					t.Fatalf("seed %d, %s, k=%d: body differs from the enumeration's\n got %s\nwant %s", seed, what, k, got, want)
				}
			}
		}
		check("cold")
		if s.builds.Load() != 3 {
			t.Fatalf("seed %d: %d overlays built for three k, want 3", seed, s.builds.Load())
		}
		base, _ := s.tools(snap.Dep)
		bridges += bytes.Count(oracleCritical(snap, 1), []byte(`"bridge":true`))
		dark += base.NumEdges() - len(snap.Dep.Plan.Ducts)
		for _, row := range s.overlays[2]().labels {
			stranding += int(row[len(row)-1]) // the pendant DC cut off
		}

		// (c) Demand values alone rebuild nothing.
		orig := snap
		first := get(t, mux, "/api/critical?k=2")
		counts := s.minCut.counts
		scaled := *orig
		scaled.Demand = make([]PairDemand, len(orig.Demand))
		for i, pd := range orig.Demand {
			scaled.Demand[i] = PairDemand{Pair: pd.Pair, Demand: pd.Demand * 1.5}
		}
		snap = &scaled
		check("scaled demand")
		if s.builds.Load() != 3 || &s.minCut.counts[0] != &counts[0] {
			t.Fatalf("seed %d: a change of demand values rebuilt an overlay or the min-cut column", seed)
		}

		// (b) A pair going dark and coming back moves min_cut_pairs with it.
		if len(orig.Demand) > 0 {
			dropped := *orig
			dropped.Demand = orig.Demand[1:]
			snap = &dropped
			check("one pair at zero")
			if &s.minCut.counts[0] == &counts[0] {
				t.Fatalf("seed %d: min-cut column kept across a change of live pairs", seed)
			}
		}
		snap = orig
		check("pair restored")
		if again := get(t, mux, "/api/critical?k=2"); !bytes.Equal(again, first) {
			t.Fatalf("seed %d: restored demand answers differently", seed)
		}
		if s.builds.Load() != 3 {
			t.Fatalf("seed %d: demand changes built %d overlays", seed, s.builds.Load()-3)
		}

		// (a) A new deployment pointer drops every overlay.
		snap = randomRegion(t, seed+1000)
		check("deployment swapped")
		if s.builds.Load() != 6 {
			t.Fatalf("seed %d: %d overlays built after a swap, want 6", seed, s.builds.Load())
		}
	}
	if bridges == 0 || dark == 0 || stranding == 0 {
		t.Fatalf("vacuous: %d bridges, %d dark ducts, %d stranding partitions over all seeds", bridges, dark, stranding)
	}
}

// TestColdServerSharesBuilds: sixteen goroutines on a cold server, mixing
// critical?k=2, critical?k=3 and /api/paths. Each (deployment, k) overlay
// is built once however many requests wait for it, every URL has one
// body, and /api/paths — which takes the lock the overlays hang off — is
// answered while the k=3 build (tens of ms) is still running.
func TestColdServerSharesBuilds(t *testing.T) {
	snap := staticRegion(t)
	s := New(Config{State: func() *Snapshot { return snap }})
	mux := http.NewServeMux()
	s.Register(mux)
	urls := []string{"/api/critical?k=2", "/api/critical?k=3", "/api/paths?from=0&to=5"}

	var k3done atomic.Bool
	var pathsDuringBuild atomic.Int64
	bodies := make([][][]byte, 16)
	var wg sync.WaitGroup
	for g := range bodies {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if g%3 != 2 {
				bodies[g] = append(bodies[g], get(t, mux, urls[g%3]))
				if g%3 == 1 {
					k3done.Store(true)
				}
				return
			}
			for done := false; !done; done = k3done.Load() {
				building := s.builds.Load() == 2 // both builds begun, k=3's not yet answered
				bodies[g] = append(bodies[g], get(t, mux, urls[2]))
				if building && !k3done.Load() {
					pathsDuringBuild.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()

	if n := s.builds.Load(); n != 2 {
		t.Errorf("%d overlays built for two (deployment, k), want 2", n)
	}
	for g, bs := range bodies {
		for _, b := range bs {
			if !bytes.Equal(b, bodies[g%3][0]) {
				t.Fatalf("%s: goroutine %d read a different body", urls[g%3], g)
			}
		}
	}
	if n := pathsDuringBuild.Load(); n < 8 {
		t.Errorf("%d /api/paths answered during the k=3 build; they queue behind it", n)
	}
}

// TestCriticalWorkBound: k is lowered until its cut sets fit maxCutSets,
// and the body reports the k answered. A 200-duct wheel (a 100-duct ring
// and a spoke to each of its nodes, so paths stay two hops) has 1.3 M ≤3
// cut sets and answers k=2; the 87-duct bench region has 110 k and
// answers 3.
func TestCriticalWorkBound(t *testing.T) {
	m := &fibermap.Map{}
	for i := 0; i < 100; i++ {
		kind := fibermap.Hut
		if i%25 == 0 {
			kind = fibermap.DC
		}
		m.AddNode(kind, geo.Point{X: float64(i)}, "")
	}
	hub := m.AddNode(fibermap.Hut, geo.Point{}, "")
	for i := 0; i < 100; i++ {
		m.AddDuct(i, (i+1)%100, 5)
		m.AddDuct(i, hub, 2)
	}
	caps := make(map[int]int)
	demand := make(map[hose.Pair]float64)
	for i, a := range m.DCs() {
		caps[a] = 4
		for _, b := range m.DCs()[i+1:] {
			demand[hose.Pair{A: a, B: b}] = 10
		}
	}
	dep, err := core.Plan(core.Region{Map: m, Capacity: caps, Lambda: 40}, core.Options{MaxFailures: 0})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		snap  *Snapshot
		wantK int
	}{
		{"200-duct wheel", &Snapshot{Dep: dep, Demand: SortedDemand(demand)}, 2},
		{"bench region", staticRegion(t), 3},
	} {
		mux := http.NewServeMux()
		New(Config{State: func() *Snapshot { return tc.snap }}).Register(mux)
		var body struct {
			K     int            `json:"k"`
			Ducts []criticalDuct `json:"ducts"`
		}
		if err := json.Unmarshal(get(t, mux, "/api/critical?k=3"), &body); err != nil {
			t.Fatal(err)
		}
		if body.K != tc.wantK || len(body.Ducts) == 0 {
			t.Errorf("%s: k=3 answered with k=%d over %d ducts, want k=%d", tc.name, body.K, len(body.Ducts), tc.wantK)
		}
	}
}
