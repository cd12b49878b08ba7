package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"time"

	"iris/internal/chaos"
	"iris/internal/graph"
	"iris/internal/hose"
	"iris/internal/plan"
)

// reqKind is one kind of read request the API workloads send.
type reqKind int

const (
	reqPaths reqKind = iota
	reqWhatIf
	reqCriticalK1
	reqCriticalK2
	reqHistory
	reqHistoryDiff
	reqStatus
	reqMetrics
	nReqKinds
)

// reqSpan names the span (and the latency sample set) of each kind after
// the layer that answers it.
var reqSpan = [nReqKinds]string{
	"topoapi.paths", "topoapi.whatif", "topoapi.critical_k1", "topoapi.critical_k2",
	"topoapi.history", "topoapi.history_diff", "daemon.status", "telemetry.render",
}

// mixSchedule is api-mix's fixed 20-request cycle: 8 paths, 4 what-ifs,
// 2 critical k=1, 1 critical k=2, 2 history listings, 1 history diff,
// 1 status, 1 metrics scrape.
var mixSchedule = []reqKind{
	reqPaths, reqWhatIf, reqPaths, reqCriticalK1, reqPaths, reqHistory, reqPaths, reqWhatIf,
	reqStatus, reqPaths, reqCriticalK2, reqPaths, reqWhatIf, reqHistory, reqPaths, reqCriticalK1,
	reqMetrics, reqPaths, reqWhatIf, reqHistoryDiff,
}

// readSchedule is what tick-read sends after every tick; every
// readK2Every-th tick adds one critical k=2.
var readSchedule = []reqKind{reqPaths, reqWhatIf, reqCriticalK1, reqHistory, reqStatus}

const readK2Every = 10

// reader sends requests in-process through the daemon's handler with a
// response recorder (no sockets), times each, and checks every body
// outside the timed part.
type reader struct {
	r   *region
	h   http.Handler
	rec *recorder
	chk *checks

	// Seeded rotations: DC pairs for /api/paths, ducts for /api/whatif.
	pairs []hose.Pair
	ducts []int
	pi    int
	di    int

	us    [nReqKinds][]float64 // handler latency per kind
	bytes int
	reqs  int

	// Traced run only: the public kernels behind the handlers, called
	// directly after the request they answer.
	base    *graph.Graph
	auditor *chaos.Auditor
	kernel  kernelCounts
}

type kernelCounts struct {
	scenarios, inadmissible int
	auditAllocs             []float64
	encodeUS                []float64
}

func newReader(r *region, seed int64, chk *checks) *reader {
	dep := r.rig.Dep
	base := dep.Plan.Input.Base
	if base == nil {
		base = plan.BaseGraph(dep.Region.Map)
	}
	rd := &reader{r: r, h: r.d.Handler(), chk: chk, base: base}
	rng := rand.New(rand.NewSource(seed))
	rd.pairs = r.base.Pairs()
	rng.Shuffle(len(rd.pairs), func(i, j int) { rd.pairs[i], rd.pairs[j] = rd.pairs[j], rd.pairs[i] })
	for _, e := range base.Edges() {
		rd.ducts = append(rd.ducts, e.ID)
	}
	rng.Shuffle(len(rd.ducts), func(i, j int) { rd.ducts[i], rd.ducts[j] = rd.ducts[j], rd.ducts[i] })
	return rd
}

// reset forgets the samples taken so far and keeps the rotation, so a
// warm-up or an untraced phase does not count.
func (rd *reader) reset() {
	rd.us = [nReqKinds][]float64{}
	rd.bytes, rd.reqs = 0, 0
	rd.kernel = kernelCounts{}
}

// trace switches the reader to the traced run: a span per request and the
// kernels behind it called directly afterwards.
func (rd *reader) trace(rec *recorder) {
	rd.rec = rec
	rd.auditor = chaos.NewAuditor(rd.r.rig.Dep.Plan)
}

// send issues one request of the given kind under parent and returns the
// time the handler took.
func (rd *reader) send(kind reqKind, parent int) time.Duration {
	var (
		url  string
		pair hose.Pair
		duct int
	)
	switch kind {
	case reqPaths:
		pair = rd.pairs[rd.pi%len(rd.pairs)]
		rd.pi++
		url = fmt.Sprintf("/api/paths?from=%d&to=%d&k=3", pair.A, pair.B)
	case reqWhatIf:
		duct = rd.ducts[rd.di%len(rd.ducts)]
		rd.di++
		url = fmt.Sprintf("/api/whatif?scenario=cut:%d", duct)
	case reqCriticalK1:
		url = "/api/critical?k=1"
	case reqCriticalK2:
		url = "/api/critical?k=2"
	case reqHistory:
		url = "/api/history?n=16"
	case reqHistoryDiff:
		sums := rd.r.lake.Summaries(0)
		if len(sums) < 2 {
			rd.chk.expect(false, "history diff needs two records, lake has %d", len(sums))
			return 0
		}
		url = fmt.Sprintf("/api/history/diff?from=%d&to=%d", sums[0].ReconfigID, sums[len(sums)-1].ReconfigID)
	case reqStatus:
		url = "/status"
	case reqMetrics:
		url = "/metrics"
	}
	req := httptest.NewRequest(http.MethodGet, url, nil)
	w := httptest.NewRecorder()

	s := rd.rec.begin(reqSpan[kind], parent)
	t0 := now()
	rd.h.ServeHTTP(w, req)
	el := since(t0)
	rd.rec.end(s)

	rd.us[kind] = append(rd.us[kind], usOf(el))
	rd.reqs++
	rd.bytes += w.Body.Len()
	rd.chk.attempt()
	if w.Code != http.StatusOK {
		rd.chk.fail("%s: status %d: %.120s", url, w.Code, w.Body.String())
	} else if err := checkBody(kind, pair, w.Body.Bytes()); err != nil {
		rd.chk.fail("%s: %v", url, err)
	}
	if rd.rec != nil {
		rd.kernels(kind, pair, duct, el, parent)
	}
	return el
}

// kernels calls, under their own spans, the public functions the handler
// for kind is built on. What the handler took beyond them is snapshotting,
// response building and JSON encoding.
func (rd *reader) kernels(kind reqKind, pair hose.Pair, duct int, handler time.Duration, parent int) {
	rec := rd.rec
	switch kind {
	case reqPaths:
		s := rec.begin("graph.kshortest", parent)
		rd.base.KShortestPaths(pair.A, pair.B, 3)
		rd.kernel.encodeUS = append(rd.kernel.encodeUS, usOf(handler-rec.end(s)))
	case reqWhatIf:
		sc := chaos.Cut(duct)
		m0 := mallocs()
		s := rec.begin("chaos.audit", parent)
		res := rd.auditor.Audit(sc)
		audit := rec.end(s)
		rd.kernel.auditAllocs = append(rd.kernel.auditAllocs, float64(mallocs()-m0))
		rd.kernel.scenarios++
		if !res.Admissible {
			rd.kernel.inadmissible++
		}
		s = rec.begin("graph.without_edges", parent)
		g := rd.base.WithoutEdges(sc.CutSet())
		cut := rec.end(s)
		g.Components()
		rd.kernel.encodeUS = append(rd.kernel.encodeUS, usOf(handler-audit-cut))

		s = rec.begin("graph.dijkstra", parent)
		g.Dijkstra(rd.pairs[rd.di%len(rd.pairs)].A)
		rec.end(s)
	case reqHistory:
		s := rec.begin("history.summaries", parent)
		sums := rd.r.lake.Summaries(16)
		rec.end(s)
		if len(sums) > 0 {
			s = rec.begin("history.get", parent)
			rd.r.lake.Get(sums[len(sums)-1].ReconfigID)
			rec.end(s)
		}
	case reqCriticalK1:
		// The hose evaluator over every DC pair: the inner kernel of both
		// the auditor and the planner's provisioning stage.
		caps := make(map[int]float64)
		for dc, c := range rd.r.rig.Dep.Region.Capacity {
			caps[dc] = float64(c)
		}
		s := rec.begin("hose.worstcase", parent)
		hose.WorstCaseLoad(caps, rd.pairs)
		rec.end(s)
	}
}

// cycle sends a schedule once and returns the time spent inside the
// handlers.
func (rd *reader) cycle(schedule []reqKind, parent int) time.Duration {
	var total time.Duration
	for _, k := range schedule {
		total += rd.send(k, parent)
	}
	return total
}

// checkBody decodes a 200 response and checks what the kind promises.
func checkBody(kind reqKind, pair hose.Pair, body []byte) error {
	switch kind {
	case reqMetrics:
		if !bytes.Contains(body, []byte("iris_daemon_steps_total")) {
			return fmt.Errorf("metrics exposition lacks iris_daemon_steps_total")
		}
		return nil
	case reqPaths:
		var out struct {
			Paths []struct {
				KM   float64 `json:"km"`
				Hops []struct {
					From int `json:"from"`
					To   int `json:"to"`
				} `json:"hops"`
			} `json:"paths"`
		}
		if err := json.Unmarshal(body, &out); err != nil {
			return err
		}
		if len(out.Paths) == 0 {
			return fmt.Errorf("no path %d→%d", pair.A, pair.B)
		}
		for i, p := range out.Paths {
			if i > 0 && p.KM < out.Paths[i-1].KM {
				return fmt.Errorf("paths not sorted by length: %v km after %v km", p.KM, out.Paths[i-1].KM)
			}
			at := pair.A
			for _, h := range p.Hops {
				if h.From != at {
					return fmt.Errorf("path %d: hop starts at %d, previous ended at %d", i, h.From, at)
				}
				at = h.To
			}
			if at != pair.B {
				return fmt.Errorf("path %d ends at %d, want %d", i, at, pair.B)
			}
		}
		return nil
	case reqCriticalK1, reqCriticalK2:
		var out struct {
			Ducts []struct {
				Stranded float64 `json:"stranded_demand"`
			} `json:"ducts"`
		}
		if err := json.Unmarshal(body, &out); err != nil {
			return err
		}
		if len(out.Ducts) == 0 {
			return fmt.Errorf("no ducts ranked")
		}
		for i, d := range out.Ducts {
			if d.Stranded < 0 {
				return fmt.Errorf("duct %d: negative stranded demand %v", i, d.Stranded)
			}
			if i > 0 && d.Stranded > out.Ducts[i-1].Stranded {
				return fmt.Errorf("ranking not descending at %d", i)
			}
		}
		return nil
	default:
		var out map[string]any
		return json.Unmarshal(body, &out)
	}
}

// kindUS is the median handler latency of one request kind, in µs.
func (rd *reader) kindUS(k reqKind) float64 { return median(rd.us[k]) }

// noteKinds adds one detail line per request kind sent.
func (rd *reader) noteKinds(res *result) {
	for k := reqKind(0); k < nReqKinds; k++ {
		if len(rd.us[k]) > 0 {
			res.note("  %-22s us: %s", reqSpan[k], summarize(rd.us[k]))
		}
	}
}

// layerMetrics fills the read-plane per-layer metrics from the traced
// run's spans.
func (rd *reader) layerMetrics(res *result, spans []span, cycles int) {
	res.set("topoapi.paths_us", rd.kindUS(reqPaths))
	res.set("topoapi.whatif_us", rd.kindUS(reqWhatIf))
	res.set("topoapi.critical_k1_us", rd.kindUS(reqCriticalK1))
	res.set("topoapi.critical_k2_ms", rd.kindUS(reqCriticalK2)/1e3)
	res.set("topoapi.history_us", rd.kindUS(reqHistory))
	res.set("topoapi.encode_us", median(rd.kernel.encodeUS))
	res.set("daemon.status_us", rd.kindUS(reqStatus))
	res.set("telemetry.render_us", rd.kindUS(reqMetrics))
	res.set("topoapi.resp_bytes", share(rd.bytes, rd.reqs))
	// Kernel spans are leaves, one per call, so per-call medians.
	us := func(name string) float64 { return median(spanUS(spans, name)) }
	res.set("graph.kshortest_us", us("graph.kshortest"))
	res.set("graph.without_edges_us", us("graph.without_edges"))
	res.set("graph.dijkstra_us", us("graph.dijkstra"))
	res.set("graph.scenarios_k2", float64(graph.CountFailureScenarios(len(rd.ducts), 2)))
	res.set("hose.worstcase_us", us("hose.worstcase"))
	res.set("history.summaries_us", us("history.summaries"))
	res.set("history.get_us", us("history.get"))
	res.set("chaos.audit_us_per_scenario", us("chaos.audit"))
	res.set("chaos.audit_allocs_per_scenario", median(rd.kernel.auditAllocs))
	// The live region is planned for no failures, so a single cut may
	// well be inadmissible here; it is a property of the plan, not an error.
	res.set("chaos.scenarios", share(rd.kernel.scenarios, cycles))
	res.set("chaos.inadmissible", share(rd.kernel.inadmissible, rd.kernel.scenarios))
}
