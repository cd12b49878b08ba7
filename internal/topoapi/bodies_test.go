package topoapi_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"iris/internal/chaos"
	"iris/internal/core"
	"iris/internal/daemon"
	"iris/internal/flowsim"
	"iris/internal/history"
	"iris/internal/topoapi"
)

// The appender oracle: every body the read plane appends (the topology
// API's, /status's, and the types inside them) is byte for byte what
// json.Marshal writes for the same value.

var (
	fillFloats = []float64{0, math.Copysign(0, -1), 1e-7, -1e-7, 1e21, 1e20, 1.5, 0.1, 123456.789, 2.5e-9, -3}
	fillInts   = []int64{0, 1, -1, 42, math.MaxInt32, math.MinInt64}
	fillUints  = []uint64{0, 1, 7, math.MaxUint64}
	fillStrs   = []string{"", "oss-07", "<b>&amp;", "ctl\x00\x01\x1f", "sep\u2028par\u2029", "bad\xff\xfeutf8",
		"quote\"back\\slash", "héllo", "tab\tnl\n"}
	timeType = reflect.TypeOf(time.Time{})
)

// fill sets every exported field v reaches from rng: zero values, which
// omitempty drops, as often as the values encoding/json has rules for
// (-0, 1e-7, 1e21, strings it escapes or repairs), nil and empty slices,
// nil and set pointers, and times in several zones. A field whose type
// has no case here fails the test, so a new kind of field is filled too.
func fill(t *testing.T, rng *rand.Rand, v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(rng.Intn(2) == 0)
	case reflect.Int, reflect.Int64:
		v.SetInt(fillInts[rng.Intn(len(fillInts))])
	case reflect.Uint64:
		v.SetUint(fillUints[rng.Intn(len(fillUints))])
	case reflect.Float64:
		v.SetFloat(fillFloats[rng.Intn(len(fillFloats))])
	case reflect.String:
		v.SetString(fillStrs[rng.Intn(len(fillStrs))])
	case reflect.Slice:
		if n := rng.Intn(4) - 1; n >= 0 {
			v.Set(reflect.MakeSlice(v.Type(), n, n))
			for i := 0; i < n; i++ {
				fill(t, rng, v.Index(i))
			}
		}
	case reflect.Pointer:
		if rng.Intn(3) > 0 {
			v.Set(reflect.New(v.Type().Elem()))
			fill(t, rng, v.Elem())
		}
	case reflect.Struct:
		if v.Type() == timeType {
			zones := []*time.Location{time.UTC, time.FixedZone("e", 5*3600+1800), time.FixedZone("w", -7*3600)}
			v.Set(reflect.ValueOf(time.Unix(rng.Int63n(4e9), rng.Int63n(2)*rng.Int63n(1e9)).In(zones[rng.Intn(len(zones))])))
			return
		}
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fill(t, rng, v.Field(i))
			}
		}
	default:
		t.Fatalf("fill: no values for a %s", v.Type())
	}
}

// appender is a body that appends itself (httpjson.Write's fast path).
type appender interface{ AppendJSON([]byte) []byte }

// sameAsMarshal fails unless v's appender writes what json.Marshal does.
func sameAsMarshal(t *testing.T, what string, v appender) {
	t.Helper()
	want, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("%s: json.Marshal: %v", what, err)
	}
	if got := v.AppendJSON([]byte("x")); !bytes.Equal(got[1:], want) || got[0] != 'x' {
		t.Errorf("%s:\nappended %s\nmarshal  %s", what, got, want)
	}
}

// filled checks n seeded fillings of a T.
func filled[T any](t *testing.T, n int) {
	for seed := int64(0); seed < int64(n); seed++ {
		var v T
		fill(t, rand.New(rand.NewSource(seed)), reflect.ValueOf(&v).Elem())
		sameAsMarshal(t, fmt.Sprintf("%T seed %d", v, seed), any(&v).(appender))
	}
}

// TestAppendersMatchMarshalFilled: every body type, filled from 200
// seeds, appends what json.Marshal writes.
func TestAppendersMatchMarshalFilled(t *testing.T) {
	const n = 200
	filled[topoapi.Hop](t, n)
	filled[topoapi.PathOut](t, n)
	filled[topoapi.PathsBody](t, n)
	filled[topoapi.CriticalDuct](t, n)
	filled[topoapi.CriticalBody](t, n)
	filled[topoapi.WhatIfBody](t, n)
	filled[topoapi.HistoryBody](t, n)
	filled[topoapi.DiffBody](t, n)
	filled[chaos.Scenario](t, n)
	filled[chaos.Overload](t, n)
	filled[chaos.Result](t, n)
	filled[chaos.Fault](t, n)
	filled[chaos.Status](t, n)
	filled[history.Summary](t, n)
	filled[core.PairDelta](t, n)
	filled[core.DuctDelta](t, n)
	filled[flowsim.Impact](t, n)
	filled[daemon.Status](t, n)
	filled[daemon.PairAllocation](t, n)
	filled[daemon.DeviceStatus](t, n)
	filled[daemon.RobustStatus](t, n)
}

// TestEnvelopesAreTheMaps: each endpoint's body struct marshals as the
// map the endpoint was first written with, whose keys json.Marshal sorts.
func TestEnvelopesAreTheMaps(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var (
			p topoapi.PathsBody
			c topoapi.CriticalBody
			w topoapi.WhatIfBody
			h topoapi.HistoryBody
			d topoapi.DiffBody
		)
		for _, v := range []any{&p, &c, &w, &h, &d} {
			fill(t, rng, reflect.ValueOf(v).Elem())
		}
		diff := map[string]any{"from": d.From, "to": d.To, "reconfigs": d.Reconfigs, "pairs": d.Pairs}
		if d.Ducts != nil {
			diff["ducts"] = *d.Ducts
		}
		for _, tc := range []struct {
			body any
			head map[string]any
		}{
			{&p, map[string]any{"from": p.From, "to": p.To, "k": p.K, "paths": p.Paths}},
			{&c, map[string]any{"k": c.K, "ducts": c.Ducts}},
			{&w, map[string]any{"scenario": w.Scenario, "result": w.Result, "stranded_demand": w.StrandedDemand}},
			{&h, map[string]any{"total": h.Total, "evicted": h.Evicted, "records": h.Records}},
			{&d, diff},
		} {
			got, err1 := json.Marshal(tc.body)
			want, err2 := json.Marshal(tc.head)
			if err1 != nil || err2 != nil || !bytes.Equal(got, want) {
				t.Errorf("%T seed %d: struct %s (%v), map %s (%v)", tc.body, seed, got, err1, want, err2)
			}
		}
	}
}

// liveRegion is the bench-sized region (seed 1, 20 DCs) stepped by its
// daemon until its lake holds a few commits; with blocks it also arms
// the chaos injector, the flow monitor and robust mode, and leaves one
// fault restored and one active.
func liveRegion(t *testing.T, blocks bool) *daemon.BuiltRegion {
	t.Helper()
	cfg := daemon.DefaultRegionConfig()
	cfg.Toy, cfg.Seed, cfg.DCs, cfg.OSSDelay = false, 1, 20, 0
	cfg.Chaos, cfg.FlowLoad, cfg.Robust = blocks, blocks, blocks
	cfg.FlowWindow = time.Second
	br, err := daemon.BuildRegion(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(br.Close)
	d := br.Daemon
	d.ProbeOnce()
	for i := 0; i < 12; i++ {
		d.Step()
	}
	if br.History.Len() < 2 {
		t.Fatalf("the lake holds %d records after 12 steps, want two to diff", br.History.Len())
	}
	if blocks {
		m := br.Rig.Fab.Deployment().Region.Map
		restored, err := br.Injector.Inject(chaos.Cut(m.Ducts[0].ID))
		if err != nil {
			t.Fatal(err)
		}
		if err := br.Injector.Restore(restored.ID); err != nil {
			t.Fatal(err)
		}
		if _, err := br.Injector.Inject(chaos.Cut(m.Ducts[1].ID)); err != nil {
			t.Fatal(err)
		}
	}
	return br
}

// servedCanonically fails unless body is what json.Marshal and T's
// appender write for the value it decodes to: the served bytes are the
// value's one encoding.
func servedCanonically[T any](t *testing.T, url string, body []byte) {
	t.Helper()
	var v T
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("%s: %v", url, err)
	}
	want, err := json.Marshal(&v)
	if err != nil {
		t.Fatalf("%s: %v", url, err)
	}
	got := any(&v).(appender).AppendJSON(nil)
	if !bytes.Equal(body, want) || !bytes.Equal(got, want) {
		t.Errorf("%s:\nserved   %.300s\nmarshal  %.300s\nappended %.300s", url, body, want, got)
	}
}

// TestServedBodiesMatchMarshal sends every request of the api-mix and
// tick-read cycles to a live 20-DC daemon, and /status with the chaos,
// flow-impact and robust blocks present and absent.
func TestServedBodiesMatchMarshal(t *testing.T) {
	for _, blocks := range []bool{false, true} {
		br := liveRegion(t, blocks)
		d, h := br.Daemon, br.Daemon.Handler()
		get := func(url string) []byte {
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, url, nil))
			if w.Code != http.StatusOK {
				t.Fatalf("%s: %d %s", url, w.Code, w.Body)
			}
			return w.Body.Bytes()
		}
		m := br.Rig.Fab.Deployment().Region.Map
		dcs := m.DCs()
		for i := 0; i < 8; i++ {
			url := fmt.Sprintf("/api/paths?from=%d&to=%d&k=3", dcs[i], dcs[len(dcs)-1-i])
			servedCanonically[topoapi.PathsBody](t, url, get(url))
		}
		for i := 0; i < 4; i++ {
			url := fmt.Sprintf("/api/whatif?scenario=cut:%d", m.Ducts[7*i].ID)
			servedCanonically[topoapi.WhatIfBody](t, url, get(url))
		}
		for _, url := range []string{"/api/critical?k=1", "/api/critical?k=2"} {
			servedCanonically[topoapi.CriticalBody](t, url, get(url))
		}
		servedCanonically[topoapi.HistoryBody](t, "/api/history?n=16", get("/api/history?n=16"))
		sums := br.History.Summaries(0)
		url := fmt.Sprintf("/api/history/diff?from=%d&to=%d", sums[0].ReconfigID, sums[len(sums)-1].ReconfigID)
		servedCanonically[topoapi.DiffBody](t, url, get(url))

		servedCanonically[daemon.Status](t, "/status", get("/status"))
		st := d.Status()
		if blocks != (st.Chaos != nil) || blocks != (st.FlowImpact != nil) || blocks != (st.Robust != nil) {
			t.Fatalf("blocks %v: /status has chaos %v, flow impact %v, robust %v",
				blocks, st.Chaos != nil, st.FlowImpact != nil, st.Robust != nil)
		}
		if blocks && (len(st.Chaos.Active) == 0 || len(st.Chaos.History) == 0) {
			t.Fatalf("chaos block %+v, want an active and a restored fault", st.Chaos)
		}
		sameAsMarshal(t, "d.Status()", &st)
	}
}
