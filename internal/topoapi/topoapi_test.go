package topoapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"iris/internal/core"
	"iris/internal/fibermap"
	"iris/internal/history"
	"iris/internal/hose"
	"iris/internal/traffic"
)

func newTestServer(t *testing.T, cfg Config) *httptest.Server {
	t.Helper()
	if cfg.State == nil {
		cfg.State = func() *Snapshot { return nil } // region not ready
	}
	mux := http.NewServeMux()
	New(cfg).Register(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// checkJSONError asserts the response carries the given status and a
// JSON {"error": ...} body, returning the message.
func checkJSONError(t *testing.T, res *http.Response, wantCode int) string {
	t.Helper()
	defer res.Body.Close()
	if res.StatusCode != wantCode {
		t.Fatalf("status = %d, want %d", res.StatusCode, wantCode)
	}
	if ct := res.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("content-type = %q, want application/json", ct)
	}
	var body struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(res.Body).Decode(&body); err != nil {
		t.Fatalf("body is not JSON: %v", err)
	}
	if body.Error == "" {
		t.Fatal("empty error field")
	}
	return body.Error
}

// TestNotReady: every topology query answers 503 with a JSON error until
// the region commits a first allocation.
func TestNotReady(t *testing.T) {
	srv := newTestServer(t, Config{})
	for _, path := range []string{
		"/api/paths?from=0&to=1",
		"/api/critical",
		"/api/whatif?scenario=cut:0",
	} {
		res, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		checkJSONError(t, res, http.StatusServiceUnavailable)
	}
}

// TestMethodNotAllowed: the API is read-only.
func TestMethodNotAllowed(t *testing.T) {
	srv := newTestServer(t, Config{})
	for _, path := range []string{"/api/paths", "/api/critical", "/api/whatif", "/api/history", "/api/history/1"} {
		res, err := srv.Client().Post(srv.URL+path, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		checkJSONError(t, res, http.StatusMethodNotAllowed)
	}
}

// TestHistoryDisabled: without a lake the history endpoints are 404, not
// a crash or an empty listing.
func TestHistoryDisabled(t *testing.T) {
	srv := newTestServer(t, Config{Lake: nil})
	for _, path := range []string{"/api/history", "/api/history/7", "/api/history/diff?from=1&to=2"} {
		res, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		msg := checkJSONError(t, res, http.StatusNotFound)
		if !strings.Contains(msg, "disabled") {
			t.Fatalf("%s: error %q does not say history is disabled", path, msg)
		}
	}
}

// seedLake appends n records with simple one-pair diffs, reconfig IDs
// 101, 102, ...
func seedLake(t testing.TB, n int) *history.Lake {
	t.Helper()
	lake, err := history.New(history.Config{Capacity: 32})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		lake.Append(history.Record{
			ReconfigID: uint64(101 + i),
			Trigger:    history.TriggerConverge,
			At:         time.Date(2026, 1, 1, 0, i, 0, 0, time.UTC),
			Pairs: []core.PairDelta{{
				A: 2, B: 3,
				OldFibers: i, NewFibers: i + 1,
			}},
		})
	}
	return lake
}

// TestHistoryEndpoints exercises the lake-backed listing, item and diff
// endpoints without a deployment (the ducts projection needs one; the
// pair diffs do not).
func TestHistoryEndpoints(t *testing.T) {
	srv := newTestServer(t, Config{Lake: seedLake(t, 3)})

	var listing struct {
		Total   int               `json:"total"`
		Evicted int               `json:"evicted"`
		Records []history.Summary `json:"records"`
	}
	res, err := srv.Client().Get(srv.URL + "/api/history")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(res.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if listing.Total != 3 || len(listing.Records) != 3 {
		t.Fatalf("listing total=%d len=%d, want 3", listing.Total, len(listing.Records))
	}
	if listing.Records[0].ReconfigID != 101 || listing.Records[2].ReconfigID != 103 {
		t.Fatalf("listing not in Seq order: %+v", listing.Records)
	}

	// ?n= limits to the most recent rows.
	res, err = srv.Client().Get(srv.URL + "/api/history?n=1")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(res.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if len(listing.Records) != 1 || listing.Records[0].ReconfigID != 103 {
		t.Fatalf("n=1 listing wrong: %+v", listing.Records)
	}

	// Item fetch round-trips the record.
	var item struct {
		Record history.Record `json:"record"`
	}
	res, err = srv.Client().Get(srv.URL + "/api/history/102")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(res.Body).Decode(&item); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if item.Record.ReconfigID != 102 || len(item.Record.Pairs) != 1 {
		t.Fatalf("item fetch wrong: %+v", item.Record)
	}

	// Unknown ID and malformed ID.
	res, _ = srv.Client().Get(srv.URL + "/api/history/999")
	checkJSONError(t, res, http.StatusNotFound)
	res, _ = srv.Client().Get(srv.URL + "/api/history/xyz")
	checkJSONError(t, res, http.StatusBadRequest)

	// Diff composes the net change over (from, to]: 101→103 nets the
	// pair's earliest Old (1) against its latest New (3).
	var diff struct {
		Reconfigs []uint64         `json:"reconfigs"`
		Pairs     []core.PairDelta `json:"pairs"`
	}
	res, err = srv.Client().Get(srv.URL + "/api/history/diff?from=101&to=103")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(res.Body).Decode(&diff); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if len(diff.Reconfigs) != 2 || diff.Reconfigs[0] != 102 || diff.Reconfigs[1] != 103 {
		t.Fatalf("diff reconfigs = %v, want [102 103]", diff.Reconfigs)
	}
	if len(diff.Pairs) != 1 {
		t.Fatalf("diff pairs = %+v, want one net delta", diff.Pairs)
	}
	if pd := diff.Pairs[0]; pd.OldFibers != 1 || pd.NewFibers != 3 {
		t.Fatalf("net delta %+v, want old=1 new=3", pd)
	}

	// Reversed order is a 400, missing endpoint a 404.
	res, _ = srv.Client().Get(srv.URL + "/api/history/diff?from=103&to=101")
	checkJSONError(t, res, http.StatusBadRequest)
	res, _ = srv.Client().Get(srv.URL + "/api/history/diff?from=101&to=999")
	checkJSONError(t, res, http.StatusNotFound)
	res, _ = srv.Client().Get(srv.URL + "/api/history/diff?from=101")
	checkJSONError(t, res, http.StatusBadRequest)
}

// TestDiffIdentity: from == to spans no records and nets no change.
func TestDiffIdentity(t *testing.T) {
	srv := newTestServer(t, Config{Lake: seedLake(t, 2)})
	var diff struct {
		Reconfigs []uint64         `json:"reconfigs"`
		Pairs     []core.PairDelta `json:"pairs"`
	}
	res, err := srv.Client().Get(srv.URL + "/api/history/diff?from=101&to=101")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != 200 {
		t.Fatalf("identity diff = %d, want 200", res.StatusCode)
	}
	if err := json.NewDecoder(res.Body).Decode(&diff); err != nil {
		t.Fatal(err)
	}
	if len(diff.Reconfigs) != 0 || len(diff.Pairs) != 0 {
		t.Fatalf("identity diff not empty: %+v", diff)
	}
}

// composeFullCopy is the diff body as it was built from a copy of the
// whole lake sorted by Seq: every record filtered to (from, to], each
// pair's earliest Old composed with its latest New, sorted with
// sort.Slice.
func composeFullCopy(lake *history.Lake, snap *Snapshot, fromID, toID uint64) []byte {
	fromRec, _ := lake.Get(fromID)
	toRec, _ := lake.Get(toID)
	recs := lake.Records(0, math.MaxUint64)
	sort.Slice(recs, func(i, j int) bool { return recs[i].Seq < recs[j].Seq })
	type bounds struct{ old, new core.PairDelta }
	net := make(map[hose.Pair]*bounds)
	var reconfigs []uint64
	for _, rec := range recs {
		if rec.Seq <= fromRec.Seq || rec.Seq > toRec.Seq {
			continue
		}
		reconfigs = append(reconfigs, rec.ReconfigID)
		for _, pd := range rec.Pairs {
			b := net[pd.Pair()]
			if b == nil {
				net[pd.Pair()] = &bounds{old: pd, new: pd}
				continue
			}
			b.new = pd
		}
	}
	pairs := make([]core.PairDelta, 0, len(net))
	for _, b := range net {
		pd := core.PairDelta{
			A: b.old.A, B: b.old.B,
			OldFibers: b.old.OldFibers, OldResidual: b.old.OldResidual,
			NewFibers: b.new.NewFibers, NewResidual: b.new.NewResidual,
		}
		if pd.OldFibers == pd.NewFibers && pd.OldResidual == pd.NewResidual {
			continue
		}
		pairs = append(pairs, pd)
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].Pair().Less(pairs[j].Pair()) })
	body, _ := json.Marshal(map[string]any{
		"from":      fromID,
		"to":        toID,
		"reconfigs": reconfigs,
		"pairs":     pairs,
		"ducts":     snap.Dep.DuctDeltas(pairs),
	})
	return body
}

// TestHistoryDiffMatchesFullCompose: on a lake that has evicted most of
// what it was given, every /api/history/diff between two retained records
// is byte for byte the body composed over a sorted copy of the whole
// lake. Reconfig IDs are shuffled against Seq, and each record moves up
// to three pairs of the static region's DCs.
func TestHistoryDiffMatchesFullCompose(t *testing.T) {
	snap := staticRegion(t)
	lake, err := history.New(history.Config{Capacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	dcs := snap.Dep.Region.Map.DCs()
	rng := rand.New(rand.NewSource(1))
	fibers := make(map[hose.Pair]int)
	const appends = 48
	for i := range appends {
		rec := history.Record{ReconfigID: uint64(1000 + (i*29)%appends), Trigger: history.TriggerConverge}
		for range 1 + rng.Intn(3) {
			p := hose.Pair{A: dcs[rng.Intn(4)], B: dcs[4+rng.Intn(4)]}
			n := rng.Intn(4)
			rec.Pairs = append(rec.Pairs, core.PairDelta{A: p.A, B: p.B, OldFibers: fibers[p], NewFibers: n})
			fibers[p] = n
		}
		lake.Append(rec)
	}
	if lake.Evicted() != appends-16 {
		t.Fatalf("lake evicted %d records, want %d", lake.Evicted(), appends-16)
	}
	mux := http.NewServeMux()
	New(Config{State: func() *Snapshot { return snap }, Lake: lake}).Register(mux)
	recs := lake.Records(0, math.MaxUint64)
	nonEmpty := 0
	for i, from := range recs {
		for _, to := range recs[i:] {
			url := fmt.Sprintf("/api/history/diff?from=%d&to=%d", from.ReconfigID, to.ReconfigID)
			got, want := get(t, mux, url), composeFullCopy(lake, snap, from.ReconfigID, to.ReconfigID)
			if !bytes.Equal(got, want) {
				t.Fatalf("GET %s:\n got %s\nwant %s", url, got, want)
			}
			if bytes.Contains(got, []byte(`"pairs":[{`)) {
				nonEmpty++
			}
		}
	}
	if nonEmpty < len(recs) {
		t.Fatalf("only %d diffs net a change; the comparison is nearly vacuous", nonEmpty)
	}
}

// staticRegion is the benchmark's read-plane region without a daemon: the
// seed-1 map with 20 DCs, planned, under a heavy-tailed demand at 0.7
// utilisation and the allocation for it.
func staticRegion(tb testing.TB) *Snapshot {
	tb.Helper()
	m, err := fibermap.Spec{Seed: 1, DCs: 20}.Map()
	if err != nil {
		tb.Fatal(err)
	}
	dep, err := core.Plan(core.UniformRegion(m, 16, 40), core.Options{MaxFailures: 0})
	if err != nil {
		tb.Fatal(err)
	}
	tm := traffic.HeavyTailed(rand.New(rand.NewSource(1)), m.DCs(), dep.Region.HoseCaps(), 0.7)
	st, err := dep.AllocateState(tm)
	if err != nil {
		tb.Fatal(err)
	}
	return &Snapshot{Dep: dep, Alloc: st.Snapshot(), Demand: SortedDemand(tm.Demand)}
}

// TestResponsesReproducible: identical requests get byte-identical bodies,
// and every body is compact JSON. Stranded demand is a float sum over the
// demand snapshot; summed in map order its last digits — and with them
// the criticality ranking of ducts that strand the same pairs — changed
// from one request to the next.
func TestResponsesReproducible(t *testing.T) {
	snap := staticRegion(t)
	srv := newTestServer(t, Config{State: func() *Snapshot { return snap }})
	duct := snap.Dep.Plan.Input.Map.Ducts[0].ID
	dcs := snap.Dep.Region.Map.DCs()
	for _, path := range []string{
		"/api/critical?k=2",
		fmt.Sprintf("/api/whatif?scenario=cut:%d", duct),
		fmt.Sprintf("/api/paths?from=%d&to=%d&k=3", dcs[0], dcs[len(dcs)-1]),
	} {
		var first []byte
		for i := 0; i < 20; i++ {
			res, err := srv.Client().Get(srv.URL + path)
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(res.Body)
			res.Body.Close()
			if err != nil || res.StatusCode != http.StatusOK {
				t.Fatalf("GET %s: status %d, err %v", path, res.StatusCode, err)
			}
			if i == 0 {
				first = body
				var compact bytes.Buffer
				if err := json.Compact(&compact, body); err != nil || !bytes.Equal(compact.Bytes(), body) {
					t.Fatalf("GET %s: body is not compact JSON (err %v): %.200s", path, err, body)
				}
			} else if !bytes.Equal(body, first) {
				t.Fatalf("GET %s: response %d differs from the first", path, i+1)
			}
		}
	}
}

// TestDerivedPerSnapshot: occupancy is derived once per snapshot pointer,
// however many /api/paths read it, and again for the next pointer even
// when it holds the same state — a commit is a new pointer.
func TestDerivedPerSnapshot(t *testing.T) {
	snap := staticRegion(t)
	s := New(Config{State: func() *Snapshot { return snap }})
	mux := http.NewServeMux()
	s.Register(mux)
	dcs := snap.Dep.Region.Map.DCs()
	url := fmt.Sprintf("/api/paths?from=%d&to=%d&k=3", dcs[0], dcs[1])
	first := get(t, mux, url)
	get(t, mux, "/api/critical?k=1")
	get(t, mux, url)
	if n := s.occupancies.Load(); n != 1 {
		t.Fatalf("three reads of one snapshot ran core.Occupancy %d times, want 1", n)
	}
	same := *snap
	snap = &same
	if again := get(t, mux, url); !bytes.Equal(again, first) {
		t.Fatal("an equal snapshot answers differently")
	}
	if n := s.occupancies.Load(); n != 2 {
		t.Fatalf("a new snapshot pointer ran core.Occupancy %d times in all, want 2", n)
	}
}

// serve returns one request against a server over the static region.
func serve(b *testing.B, snap *Snapshot, url string) func() {
	mux := http.NewServeMux()
	New(Config{State: func() *Snapshot { return snap }}).Register(mux)
	req := httptest.NewRequest(http.MethodGet, url, nil)
	return func() {
		w := httptest.NewRecorder()
		mux.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			b.Fatalf("status %d", w.Code)
		}
	}
}

// gateAllocs runs a warmed request b.N times and fails above max
// allocations per request.
func gateAllocs(b *testing.B, request func(), max float64) {
	request()
	if allocs := testing.AllocsPerRun(20, request); allocs > max {
		b.Fatalf("a warmed request allocates %.0f times, want at most %.0f", allocs, max)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		request()
	}
}

// BenchmarkAPICriticalK2 is one two-cut criticality request against a
// warmed server over the static region: the demand summed over the
// overlay's partitions, the kept min-cut column, the ranking and its
// JSON. It fails itself above 21 allocations per request (14 today, 23
// when the body was a map through json.Marshal; 48 when each request
// also sorted the demand and indented its body; 549 when it also
// enumerated 3 829 cut sets and ran 190 max-flows).
func BenchmarkAPICriticalK2(b *testing.B) {
	gateAllocs(b, serve(b, staticRegion(b), "/api/critical?k=2"), 21)
}

// BenchmarkAPICriticalK2Cold is the first two-cut request a server sees
// for a deployment: the overlay build (3 829 cut sets over 87 ducts) and
// the 190 max-flows, which BenchmarkAPICriticalK2 leaves in its set-up.
func BenchmarkAPICriticalK2Cold(b *testing.B) {
	snap := staticRegion(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve(b, snap, "/api/critical?k=2")()
	}
}

// BenchmarkAPIPaths is one /api/paths?k=3 between the static region's
// first and last DC against a warmed server: Yen's three shortest paths,
// the hops annotated from the occupancy kept for the snapshot, and the
// JSON. It fails itself above 50 allocations per request (43 today, 56
// when the body was a map through json.Marshal; 165 when each spur
// search had a fresh tree, scratch and mask and every candidate was
// allocated before its duplicate check; 205 when each request also ran
// core.Occupancy and indented its body).
func BenchmarkAPIPaths(b *testing.B) {
	snap := staticRegion(b)
	dcs := snap.Dep.Region.Map.DCs()
	gateAllocs(b, serve(b, snap, fmt.Sprintf("/api/paths?from=%d&to=%d&k=3", dcs[0], dcs[len(dcs)-1])), 50)
}

// BenchmarkAPIHistory is one /api/history?n=16 listing, api-mix's
// history read, against a full lake of 32 records. It fails itself above
// 16 allocations per request (13 today, 40 when the body was a map
// through json.Marshal).
func BenchmarkAPIHistory(b *testing.B) {
	mux := http.NewServeMux()
	New(Config{State: func() *Snapshot { return nil }, Lake: seedLake(b, 40)}).Register(mux)
	req := httptest.NewRequest(http.MethodGet, "/api/history?n=16", nil)
	gateAllocs(b, func() {
		w := httptest.NewRecorder()
		mux.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			b.Fatalf("status %d", w.Code)
		}
	}, 16)
}

// FuzzAPIQuery: an arbitrary raw query string against the three
// query-parsing endpoints on the static region never panics, answers
// only 200, 400 or 404, and always answers JSON.
func FuzzAPIQuery(f *testing.F) {
	for _, q := range []string{
		"from=0&to=0", "from=0&to=5&k=2", "k=99999999999999999999", "k=0", "k=-1", "k=3",
		"scenario=cut:", "scenario=cut:999", "scenario=cut:1,1", "kind=cut", "scenario=geo:1,2",
		"scenario=geo:1,2,3", "scenario=geo:NaN,2,Inf", "kind=hut&node=4", "audit=envelope",
	} {
		f.Add(q)
	}
	snap := staticRegion(f)
	mux := http.NewServeMux()
	New(Config{State: func() *Snapshot { return snap }}).Register(mux)
	f.Fuzz(func(t *testing.T, query string) {
		for _, path := range []string{"/api/paths", "/api/critical", "/api/whatif"} {
			req := httptest.NewRequest(http.MethodGet, path, nil)
			req.URL.RawQuery = query
			w := httptest.NewRecorder()
			mux.ServeHTTP(w, req)
			if w.Code != http.StatusOK && w.Code != http.StatusBadRequest && w.Code != http.StatusNotFound {
				t.Errorf("GET %s?%s = %d", path, query, w.Code)
			}
			if !json.Valid(w.Body.Bytes()) {
				t.Errorf("GET %s?%s (%d): body is not JSON: %q", path, query, w.Code, w.Body)
			}
		}
	})
}

// TestUnencodableBodyAnswers500: a demand that is NaN (only a bug can
// commit one) strands NaN, which JSON cannot hold, and the what-if that
// reports it answers 500 with a JSON error body, not a 200 with no body.
func TestUnencodableBodyAnswers500(t *testing.T) {
	snap := *staticRegion(t)
	snap.Demand = slices.Clone(snap.Demand)
	for i := range snap.Demand {
		snap.Demand[i].Demand = math.NaN()
	}
	srv := newTestServer(t, Config{State: func() *Snapshot { return &snap }})
	// Cutting a DC's access ducts strands its demand.
	m := snap.Dep.Region.Map
	var access []string
	for _, d := range m.Ducts {
		if dc := m.DCs()[0]; d.A == dc || d.B == dc {
			access = append(access, fmt.Sprint(d.ID))
		}
	}
	res, err := srv.Client().Get(srv.URL + "/api/whatif?scenario=cut:" + strings.Join(access, ","))
	if err != nil {
		t.Fatal(err)
	}
	if msg := checkJSONError(t, res, http.StatusInternalServerError); !strings.Contains(msg, "NaN") {
		t.Errorf("error %q does not name the NaN", msg)
	}
}
