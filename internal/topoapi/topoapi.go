// Package topoapi is the region's topology intelligence API: the
// operator-facing query surface mounted on irisd (and proxied per region
// by irisfleet) that answers, against the live fabric,
//
//	GET /api/paths?from=&to=&k=     k-shortest duct paths with per-hop fiber occupancy
//	GET /api/critical?k=            ducts ranked by the hose demand their loss strands
//	GET /api/whatif?scenario=       survivability audit of a hypothetical failure
//	GET /api/whatif?audit=envelope  live demand vs the committed robust envelope
//	GET /api/history                reconfiguration history (the history lake)
//	GET /api/history/{reconfig_id}  one record with span tree and alloc diff
//	GET /api/history/diff?from=&to= net topology change between two reconfigs
//
// The server owns no region state: a Config.State callback hands it the
// daemon's committed state — deployment, allocation and demand — as one
// immutable *Snapshot, the same pointer for every read until the next
// commit, and Config.Lake is the history store the daemon and chaos
// cycles append to. What it keeps is derived from those pointers alone.
// Per deployment, dropped when a replan swaps it: the base graph, the
// survivability auditor, and per k asked for the cut overlay
// /api/critical reads (the partitions the ≤k cut sets produce; built by
// the first request, once). Per snapshot, dropped at the next commit: the
// per-duct occupancy /api/paths reports and the live-pair list. The last
// min_cut_pairs column is kept too, for (deployment, live-pair list);
// demand values change none of it, so steady-state queries never re-plan,
// re-enumerate or re-sort. Bodies are compact JSON; pretty-printing is
// the client's (| python3 -m json.tool).
package topoapi

import (
	"cmp"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"iris/internal/chaos"
	"iris/internal/core"
	"iris/internal/graph"
	"iris/internal/history"
	"iris/internal/hose"
	"iris/internal/httpjson"
	"iris/internal/jsonw"
	"iris/internal/robust"
	"iris/internal/trace"
	"iris/internal/traffic"
)

// Snapshot is one committed state of the region, the state every read
// between two commits is answered against. It is immutable once handed
// out: a new committed state is a new *Snapshot, and the server keeps
// what it derives from one per pointer. Dep is the deployment Alloc
// belongs to.
type Snapshot struct {
	Dep   *core.Deployment
	Alloc core.Allocation
	// Demand is the live demand as SortedDemand lays it out: the pairs
	// with demand, in pair order, so float sums over it are reproducible.
	Demand []PairDemand
	// Robust is the committed robust envelope (nil outside robust mode);
	// /api/whatif?audit=envelope audits the live demand against it.
	Robust *robust.Envelope
}

// PairDemand is one entry of a Snapshot's demand.
type PairDemand struct {
	Pair   hose.Pair
	Demand float64
}

// SortedDemand flattens a demand map into a Snapshot's Demand: the pairs
// with demand above zero, in (A, B) order.
func SortedDemand(demand map[hose.Pair]float64) []PairDemand {
	out := make([]PairDemand, 0, len(demand))
	for p, d := range demand {
		if d > 0 {
			out = append(out, PairDemand{Pair: p, Demand: d})
		}
	}
	slices.SortFunc(out, func(a, b PairDemand) int { return a.Pair.Compare(b.Pair) })
	return out
}

// Config wires a Server to its region.
type Config struct {
	// State returns the committed state, or nil until the region has
	// committed a first allocation (topology queries answer 503 until
	// then); required.
	State func() *Snapshot
	// Lake is the reconfiguration history store; nil serves the history
	// endpoints as 404 "history disabled".
	Lake *history.Lake
}

// Server answers topology intelligence queries. Safe for concurrent use.
type Server struct {
	cfg Config

	mu       sync.Mutex
	dep      *core.Deployment // deployment the cached tools were built for
	base     *graph.Graph
	auditor  *chaos.Auditor
	overlays [maxCutK]func() *cutOverlay // by k-1; each builds once, on first call
	read     *derived                    // kept for the last snapshot read

	minCut      minCutMemo
	builds      atomic.Int64 // overlays built; read by tests only
	occupancies atomic.Int64 // core.Occupancy runs; read by tests only
}

// derived is what the server keeps per snapshot: the per-duct occupancy,
// run once on the first /api/paths that needs it, and the live-pair list.
type derived struct {
	snap      *Snapshot
	occupancy func() (fibers, residual map[int]int)
	live      []hose.Pair
}

// New returns a server for the given region wiring.
func New(cfg Config) *Server {
	return &Server{cfg: cfg}
}

// Register mounts the API endpoints on a mux.
func (s *Server) Register(mux *http.ServeMux) {
	mux.HandleFunc("/api/paths", s.handlePaths)
	mux.HandleFunc("/api/critical", s.handleCritical)
	mux.HandleFunc("/api/whatif", s.handleWhatIf)
	mux.HandleFunc("/api/history", s.handleHistory)
	mux.HandleFunc("/api/history/", s.handleHistoryItem)
}

// jsonError answers with a JSON error body (httpjson.Error).
func jsonError(w http.ResponseWriter, code int, format string, args ...any) {
	httpjson.Error(w, code, fmt.Sprintf(format, args...))
}

// snapshot fetches the committed state, handling not-ready and non-GET.
func (s *Server) snapshot(w http.ResponseWriter, r *http.Request) (*Snapshot, bool) {
	if r.Method != http.MethodGet {
		jsonError(w, http.StatusMethodNotAllowed, "GET only")
		return nil, false
	}
	snap := s.cfg.State()
	if snap == nil {
		jsonError(w, http.StatusServiceUnavailable, "region has not committed an allocation yet")
		return nil, false
	}
	return snap, true
}

// tools returns the base graph and auditor for a deployment, rebuilding
// the cache when the deployment pointer changes (a replan swaps it).
func (s *Server) tools(dep *core.Deployment) (*graph.Graph, *chaos.Auditor) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.retool(dep)
	return s.base, s.auditor
}

// retool points the cache at a deployment, dropping everything kept for
// another. Callers hold mu.
func (s *Server) retool(dep *core.Deployment) {
	if s.dep == dep {
		return
	}
	s.base = dep.Plan.Input.Base
	s.auditor = chaos.NewAuditor(dep.Plan)
	s.overlays = [maxCutK]func() *cutOverlay{}
	s.dep = dep
}

// derive returns what the server keeps for a snapshot, replacing what it
// kept for the last one when the pointer changes (a commit).
func (s *Server) derive(snap *Snapshot) *derived {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.read != nil && s.read.snap == snap {
		return s.read
	}
	live := make([]hose.Pair, len(snap.Demand))
	for i, pd := range snap.Demand {
		live[i] = pd.Pair
	}
	s.read = &derived{snap: snap, live: live, occupancy: sync.OnceValues(func() (map[int]int, map[int]int) {
		s.occupancies.Add(1)
		return core.Occupancy(snap.Dep, snap.Alloc)
	})}
	return s.read
}

func intQuery(q url.Values, name string, def int) (int, error) {
	v := q.Get(name)
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("bad %s %q", name, v)
	}
	return n, nil
}

// hop is one duct of a reported path, with its live fiber occupancy.
type hop struct {
	Duct             int     `json:"duct"`
	From             int     `json:"from"`
	To               int     `json:"to"`
	KM               float64 `json:"km"`
	ProvisionedPairs int     `json:"provisioned_pairs"`
	UsedFibers       int     `json:"used_fibers"`
	ResidualUsers    int     `json:"residual_users"`
	FreePairs        int     `json:"free_pairs"`
}

func (h hop) AppendJSON(b []byte) []byte {
	b = jsonw.Int(append(b, `{"duct":`...), h.Duct)
	b = jsonw.Int(append(b, `,"from":`...), h.From)
	b = jsonw.Int(append(b, `,"to":`...), h.To)
	b = jsonw.Float(append(b, `,"km":`...), h.KM)
	b = jsonw.Int(append(b, `,"provisioned_pairs":`...), h.ProvisionedPairs)
	b = jsonw.Int(append(b, `,"used_fibers":`...), h.UsedFibers)
	b = jsonw.Int(append(b, `,"residual_users":`...), h.ResidualUsers)
	b = jsonw.Int(append(b, `,"free_pairs":`...), h.FreePairs)
	return append(b, '}')
}

// pathOut is one k-shortest path.
type pathOut struct {
	Nodes []int    `json:"nodes"`
	Names []string `json:"names"`
	KM    float64  `json:"km"`
	Hops  []hop    `json:"hops"`
}

func (p pathOut) AppendJSON(b []byte) []byte {
	b = jsonw.Ints(append(b, `{"nodes":`...), p.Nodes)
	b = jsonw.Strings(append(b, `,"names":`...), p.Names)
	b = jsonw.Float(append(b, `,"km":`...), p.KM)
	b = jsonw.Slice(append(b, `,"hops":`...), p.Hops)
	return append(b, '}')
}

// pathsBody is /api/paths' answer. Its fields are in key order: the
// bytes are those of the map the endpoint was first written with.
type pathsBody struct {
	From  int       `json:"from"`
	K     int       `json:"k"`
	Paths []pathOut `json:"paths"`
	To    int       `json:"to"`
}

func (p *pathsBody) AppendJSON(b []byte) []byte {
	b = jsonw.Int(append(b, `{"from":`...), p.From)
	b = jsonw.Int(append(b, `,"k":`...), p.K)
	b = jsonw.Slice(append(b, `,"paths":`...), p.Paths)
	b = jsonw.Int(append(b, `,"to":`...), p.To)
	return append(b, '}')
}

func (s *Server) handlePaths(w http.ResponseWriter, r *http.Request) {
	snap, ok := s.snapshot(w, r)
	if !ok {
		return
	}
	m := snap.Dep.Region.Map
	q := r.URL.Query()
	from, errF := intQuery(q, "from", -1)
	to, errT := intQuery(q, "to", -1)
	if errF != nil || errT != nil || from < 0 || from >= len(m.Nodes) || to < 0 || to >= len(m.Nodes) {
		jsonError(w, http.StatusBadRequest, "paths needs from= and to= node IDs in [0,%d)", len(m.Nodes))
		return
	}
	k, err := intQuery(q, "k", 3)
	if err != nil || k <= 0 {
		jsonError(w, http.StatusBadRequest, "bad k")
		return
	}
	if k > 16 {
		k = 16
	}
	base, _ := s.tools(snap.Dep)
	fibers, residual := s.derive(snap).occupancy()
	paths := base.KShortestPaths(from, to, k)
	out := make([]pathOut, 0, len(paths))
	for _, p := range paths {
		po := pathOut{Nodes: p.Nodes, Names: make([]string, len(p.Nodes)), KM: p.Dist, Hops: make([]hop, 0, len(p.Edges))}
		for i, n := range p.Nodes {
			po.Names[i] = m.Nodes[n].Name
		}
		for i, e := range p.Edges {
			prov, basePairs := 0, 0
			if du := snap.Dep.Plan.Ducts[e.ID]; du != nil {
				prov, basePairs = du.TotalPairs(), du.BasePairs
			}
			po.Hops = append(po.Hops, hop{
				Duct:             e.ID,
				From:             p.Nodes[i],
				To:               p.Nodes[i+1],
				KM:               e.W,
				ProvisionedPairs: prov,
				UsedFibers:       fibers[e.ID],
				ResidualUsers:    residual[e.ID],
				FreePairs:        basePairs - fibers[e.ID],
			})
		}
		out = append(out, po)
	}
	httpjson.Write(w, http.StatusOK, &pathsBody{From: from, K: k, Paths: out, To: to})
}

// criticalDuct is one duct of the criticality ranking.
type criticalDuct struct {
	Duct int     `json:"duct"`
	From int     `json:"from"`
	To   int     `json:"to"`
	KM   float64 `json:"km"`
	// Bridge: removing this duct alone disconnects the base graph.
	Bridge bool `json:"bridge"`
	// StrandedDemand is the worst hose demand (wavelengths) stranded by
	// any examined ≤k cut set containing this duct.
	StrandedDemand float64 `json:"stranded_demand"`
	// SoloStranded is the demand stranded when only this duct is cut.
	SoloStranded float64 `json:"solo_stranded"`
	// MinCutPairs counts live DC pairs whose max-flow min cut crosses
	// this duct — pairs this duct bottlenecks.
	MinCutPairs int `json:"min_cut_pairs"`
}

func (c criticalDuct) AppendJSON(b []byte) []byte {
	b = jsonw.Int(append(b, `{"duct":`...), c.Duct)
	b = jsonw.Int(append(b, `,"from":`...), c.From)
	b = jsonw.Int(append(b, `,"to":`...), c.To)
	b = jsonw.Float(append(b, `,"km":`...), c.KM)
	b = jsonw.Bool(append(b, `,"bridge":`...), c.Bridge)
	b = jsonw.Float(append(b, `,"stranded_demand":`...), c.StrandedDemand)
	b = jsonw.Float(append(b, `,"solo_stranded":`...), c.SoloStranded)
	b = jsonw.Int(append(b, `,"min_cut_pairs":`...), c.MinCutPairs)
	return append(b, '}')
}

// criticalBody is /api/critical's answer, its fields in key order.
type criticalBody struct {
	Ducts []criticalDuct `json:"ducts"`
	K     int            `json:"k"`
}

func (c *criticalBody) AppendJSON(b []byte) []byte {
	b = jsonw.Slice(append(b, `{"ducts":`...), c.Ducts)
	b = jsonw.Int(append(b, `,"k":`...), c.K)
	return append(b, '}')
}

// whatIfBody is /api/whatif's answer to a scenario, its fields in key
// order.
type whatIfBody struct {
	Result         chaos.Result   `json:"result"`
	Scenario       chaos.Scenario `json:"scenario"`
	StrandedDemand float64        `json:"stranded_demand"`
}

func (wi *whatIfBody) AppendJSON(b []byte) []byte {
	b = wi.Result.AppendJSON(append(b, `{"result":`...))
	b = wi.Scenario.AppendJSON(append(b, `,"scenario":`...))
	b = jsonw.Float(append(b, `,"stranded_demand":`...), wi.StrandedDemand)
	return append(b, '}')
}

// historyBody is /api/history's answer, its fields in key order.
type historyBody struct {
	Evicted int               `json:"evicted"`
	Records []history.Summary `json:"records"`
	Total   int               `json:"total"`
}

func (h *historyBody) AppendJSON(b []byte) []byte {
	b = jsonw.Int(append(b, `{"evicted":`...), h.Evicted)
	b = jsonw.Slice(append(b, `,"records":`...), h.Records)
	b = jsonw.Int(append(b, `,"total":`...), h.Total)
	return append(b, '}')
}

// diffBody is /api/history/diff's answer, its fields in key order. Ducts
// is there (nil: absent) once the region has committed a deployment to
// project the pairs onto.
type diffBody struct {
	Ducts     *[]core.DuctDelta `json:"ducts,omitempty"`
	From      uint64            `json:"from"`
	Pairs     []core.PairDelta  `json:"pairs"`
	Reconfigs []uint64          `json:"reconfigs"`
	To        uint64            `json:"to"`
}

func (d *diffBody) AppendJSON(b []byte) []byte {
	b = append(b, '{')
	if d.Ducts != nil {
		b = append(jsonw.Slice(append(b, `"ducts":`...), *d.Ducts), ',')
	}
	b = jsonw.Uint(append(b, `"from":`...), d.From)
	b = jsonw.Slice(append(b, `,"pairs":`...), d.Pairs)
	b = jsonw.Uints(append(b, `,"reconfigs":`...), d.Reconfigs)
	b = jsonw.Uint(append(b, `,"to":`...), d.To)
	return append(b, '}')
}

// separated sums, in the given order, the demand of the pairs whose
// endpoints carry different component labels: what a cut strands. That
// needs components of the masked base graph only — no derived graph and
// no routing.
func separated[L int | int32](labels []L, demand []PairDemand) float64 {
	total := 0.0
	for _, pd := range demand {
		if labels[pd.Pair.A] != labels[pd.Pair.B] {
			total += pd.Demand
		}
	}
	return total
}

// strandedBy is the demand stranded when the given ducts (ascending IDs)
// are cut.
func strandedBy(base *graph.Graph, ducts []int, demand []PairDemand) float64 {
	cut := graph.NewCut(base)
	cut.Set(ducts)
	return separated(base.ComponentsInto(cut.Skip(), nil), demand)
}

func (s *Server) handleCritical(w http.ResponseWriter, r *http.Request) {
	snap, ok := s.snapshot(w, r)
	if !ok {
		return
	}
	k, err := intQuery(r.URL.Query(), "k", 2)
	if err != nil || k <= 0 {
		jsonError(w, http.StatusBadRequest, "bad k")
		return
	}
	base, ov, k := s.cuts(snap.Dep, k)

	// Each partition's stranded demand is summed once and attributed to
	// every duct with a ≤k cut set that produces the partition (worst
	// case per duct).
	stranded := ov.stranded(snap.Demand)
	minCut := s.minCutPairs(snap.Dep, base, s.derive(snap).live)

	out := make([]criticalDuct, base.NumEdges())
	for i, e := range base.Edges() {
		row := criticalDuct{Duct: e.ID, From: e.U, To: e.V, KM: e.W,
			Bridge: ov.solo[i] != 0, SoloStranded: stranded[ov.solo[i]], MinCutPairs: minCut[i]}
		for _, p := range ov.parts[i] {
			if stranded[p] > row.StrandedDemand {
				row.StrandedDemand = stranded[p]
			}
		}
		out[i] = row
	}
	slices.SortFunc(out, func(a, b criticalDuct) int {
		if a.StrandedDemand != b.StrandedDemand {
			return cmp.Compare(b.StrandedDemand, a.StrandedDemand)
		}
		if a.SoloStranded != b.SoloStranded {
			return cmp.Compare(b.SoloStranded, a.SoloStranded)
		}
		if a.MinCutPairs != b.MinCutPairs {
			return cmp.Compare(b.MinCutPairs, a.MinCutPairs)
		}
		return cmp.Compare(a.Duct, b.Duct)
	})
	httpjson.Write(w, http.StatusOK, &criticalBody{Ducts: out, K: k})
}

func (s *Server) handleWhatIf(w http.ResponseWriter, r *http.Request) {
	snap, ok := s.snapshot(w, r)
	if !ok {
		return
	}
	m := snap.Dep.Region.Map
	q := r.URL.Query()
	if q.Get("audit") == "envelope" || q.Get("envelope") != "" {
		s.handleEnvelopeAudit(w, snap)
		return
	}
	var sc chaos.Scenario
	var err error
	if spec := q.Get("scenario"); spec != "" {
		sc, err = chaos.ParseScenario(m, spec)
	} else if q.Get("kind") != "" {
		sc, err = chaos.ScenarioFromQuery(m, q)
	} else {
		jsonError(w, http.StatusBadRequest, "whatif needs scenario= (e.g. cut:3,7), kind= parameters, or audit=envelope")
		return
	}
	if err != nil {
		jsonError(w, http.StatusBadRequest, "%v", err)
		return
	}
	base, auditor := s.tools(snap.Dep)
	res := auditor.Audit(sc)
	httpjson.Write(w, http.StatusOK, &whatIfBody{Result: res, Scenario: sc, StrandedDemand: strandedBy(base, sc.Ducts, snap.Demand)})
}

// handleEnvelopeAudit answers /api/whatif?audit=envelope: where the live
// demand sits relative to the committed robust envelope — contained or
// escaped, the worst per-pair utilisation, and the escaping pairs.
func (s *Server) handleEnvelopeAudit(w http.ResponseWriter, snap *Snapshot) {
	env := snap.Robust
	if env == nil {
		jsonError(w, http.StatusNotFound, "no robust envelope committed (run with -robust)")
		return
	}
	live := traffic.NewMatrix(snap.Dep.Region.Map.DCs())
	for _, pd := range snap.Demand {
		live.Set(pd.Pair, pd.Demand)
	}
	escapes := env.Escapes(live)
	if escapes == nil {
		escapes = []robust.Escape{}
	}
	util := env.Utilization(live)
	if math.IsInf(util, 0) {
		// JSON has no Inf; -1 marks demand on a pair the envelope holds
		// zero capacity for.
		util = -1
	}
	httpjson.Write(w, http.StatusOK, map[string]any{
		"envelope": map[string]any{
			"matrices": env.Matrices,
			"headroom": env.Headroom,
			"clamped":  env.Clamped,
			"pairs":    len(env.Demand),
			"total":    env.Total,
		},
		"contained":   env.Contains(live),
		"utilization": util,
		"escapes":     escapes,
	})
}

func (s *Server) handleHistory(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		jsonError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	if s.cfg.Lake == nil {
		jsonError(w, http.StatusNotFound, "history disabled")
		return
	}
	n, err := intQuery(r.URL.Query(), "n", 0)
	if err != nil {
		jsonError(w, http.StatusBadRequest, "bad n")
		return
	}
	httpjson.Write(w, http.StatusOK, &historyBody{
		Evicted: s.cfg.Lake.Evicted(),
		Records: s.cfg.Lake.Summaries(n),
		Total:   s.cfg.Lake.Len(),
	})
}

func (s *Server) handleHistoryItem(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		jsonError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	if s.cfg.Lake == nil {
		jsonError(w, http.StatusNotFound, "history disabled")
		return
	}
	suffix := strings.TrimPrefix(r.URL.Path, "/api/history/")
	if suffix == "diff" {
		s.handleHistoryDiff(w, r)
		return
	}
	id, err := strconv.ParseUint(suffix, 10, 64)
	if err != nil || id == 0 {
		jsonError(w, http.StatusBadRequest, "bad reconfig id %q", suffix)
		return
	}
	rec, ok := s.cfg.Lake.Get(id)
	if !ok {
		jsonError(w, http.StatusNotFound, "no history record for reconfig %d", id)
		return
	}
	httpjson.Write(w, http.StatusOK, map[string]any{"record": rec, "tree": trace.Tree(rec.Spans)})
}

func (s *Server) handleHistoryDiff(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	fromID, errF := strconv.ParseUint(q.Get("from"), 10, 64)
	toID, errT := strconv.ParseUint(q.Get("to"), 10, 64)
	if errF != nil || errT != nil {
		jsonError(w, http.StatusBadRequest, "diff needs from= and to= reconfig IDs")
		return
	}
	fromRec, okF := s.cfg.Lake.Get(fromID)
	toRec, okT := s.cfg.Lake.Get(toID)
	if !okF || !okT {
		missing := fromID
		if okF {
			missing = toID
		}
		jsonError(w, http.StatusNotFound, "no history record for reconfig %d", missing)
		return
	}
	if fromRec.Seq > toRec.Seq {
		jsonError(w, http.StatusBadRequest, "reconfig %d (seq %d) is later than %d (seq %d)",
			fromID, fromRec.Seq, toID, toRec.Seq)
		return
	}

	// Net change across (from, to]: compose each pair's earliest Old with
	// its latest New, in Seq order.
	type bounds struct{ old, new core.PairDelta }
	net := make(map[hose.Pair]*bounds)
	var reconfigs []uint64
	for _, rec := range s.cfg.Lake.Records(fromRec.Seq, toRec.Seq) {
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
	slices.SortFunc(pairs, func(a, b core.PairDelta) int { return a.Pair().Compare(b.Pair()) })
	body := diffBody{From: fromID, Pairs: pairs, Reconfigs: reconfigs, To: toID}
	if snap := s.cfg.State(); snap != nil {
		ducts := snap.Dep.DuctDeltas(pairs)
		body.Ducts = &ducts
	}
	httpjson.Write(w, http.StatusOK, &body)
}
