package daemon

import (
	"context"
	"errors"
	"net"
	"net/http"
	"slices"
	"strconv"
	"time"

	"iris/internal/chaos"
	"iris/internal/flowsim"
	"iris/internal/hose"
	"iris/internal/httpjson"
	"iris/internal/jsonw"
	"iris/internal/topoapi"
	"iris/internal/trace"
)

// Header-read and keep-alive limits of the HTTP planes, and how long a
// shutdown waits for in-flight requests. They are constants, not flags: a
// client that trickles its request line or parks an idle connection is
// never legitimate.
const (
	httpReadHeaderTimeout = 5 * time.Second
	httpIdleTimeout       = 2 * time.Minute
	httpShutdownGrace     = 5 * time.Second
)

// Serve runs loop while it serves h on ln, which irisd and irisfleet open
// before they bring anything up, and shuts the server down once loop
// returns. A serve failure cancels loop's context, so the loop ends as a
// signal ends it and the caller still tears down what it built. Serve
// returns the serve error, else loop's own error (one that ends it on its
// context is not), else the shutdown's.
func Serve(ctx context.Context, ln net.Listener, h http.Handler, loop func(context.Context) error) error {
	srv := newHTTPServer(h)
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	served := make(chan error, 1)
	go func() {
		served <- srv.Serve(ln)
		cancel()
	}()
	err := loop(ctx)
	if ctx.Err() != nil {
		err = nil
	}
	shutdownCtx, stop := context.WithTimeout(context.Background(), httpShutdownGrace)
	defer stop()
	if serr := srv.Shutdown(shutdownCtx); err == nil {
		err = serr
	}
	if serr := <-served; !errors.Is(serr, http.ErrServerClosed) {
		return serr
	}
	return err
}

// newHTTPServer bounds how long a client may take to send its request
// headers and how long an idle keep-alive connection is held. There is
// no WriteTimeout: a CPU profile legitimately streams for longer than
// any fixed bound. /api/critical no longer does — its one long step, the
// first request's overlay build for a deployment, is bounded by
// topoapi's cut-set limit — but a deadline on it still needs handlers
// that honour cancellation first.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: httpReadHeaderTimeout,
		IdleTimeout:       httpIdleTimeout,
	}
}

// Status is the daemon's introspection snapshot, served as JSON on
// /status.
type Status struct {
	Healthy    bool `json:"healthy"`
	NeedRepair bool `json:"need_repair"`
	// Converged: healthy, nothing pending, devices match intent.
	Converged bool   `json:"converged"`
	Steps     int    `json:"steps"`
	LastError string `json:"last_error,omitempty"`

	LastAuditOK bool       `json:"last_audit_ok"`
	LastAuditAt *time.Time `json:"last_audit_at,omitempty"`
	// AllocationAgeSeconds is the staleness of the last successful
	// convergence.
	AllocationAgeSeconds float64 `json:"allocation_age_seconds"`
	PendingShift         bool    `json:"pending_shift"`
	// LastReconfigID is the reconfig ID of the last change the devices
	// accepted — the handle for /debug/events?reconfig=<id>.
	LastReconfigID uint64 `json:"last_reconfig_id,omitempty"`

	Circuits   int              `json:"circuits"`
	Allocation []PairAllocation `json:"allocation,omitempty"`
	Devices    []DeviceStatus   `json:"devices"`

	// Chaos is the fault injector's snapshot (absent when no injector is
	// configured).
	Chaos *chaos.Status `json:"chaos,omitempty"`

	// FlowImpact is the simulated flow-level cost of the last
	// reconfiguration or repair (absent until the flow monitor has
	// observed one).
	FlowImpact *flowsim.Impact `json:"flow_impact,omitempty"`

	// Robust is the robust-mode envelope block (absent unless
	// Config.Robust arms the envelope rule).
	Robust *RobustStatus `json:"robust,omitempty"`
}

func (st *Status) AppendJSON(b []byte) []byte {
	b = jsonw.Bool(append(b, `{"healthy":`...), st.Healthy)
	b = jsonw.Bool(append(b, `,"need_repair":`...), st.NeedRepair)
	b = jsonw.Bool(append(b, `,"converged":`...), st.Converged)
	b = jsonw.Int(append(b, `,"steps":`...), st.Steps)
	if st.LastError != "" {
		b = jsonw.String(append(b, `,"last_error":`...), st.LastError)
	}
	b = jsonw.Bool(append(b, `,"last_audit_ok":`...), st.LastAuditOK)
	if st.LastAuditAt != nil {
		b = jsonw.Time(append(b, `,"last_audit_at":`...), *st.LastAuditAt)
	}
	b = jsonw.Float(append(b, `,"allocation_age_seconds":`...), st.AllocationAgeSeconds)
	b = jsonw.Bool(append(b, `,"pending_shift":`...), st.PendingShift)
	if st.LastReconfigID != 0 {
		b = jsonw.Uint(append(b, `,"last_reconfig_id":`...), st.LastReconfigID)
	}
	b = jsonw.Int(append(b, `,"circuits":`...), st.Circuits)
	if len(st.Allocation) > 0 {
		b = jsonw.Slice(append(b, `,"allocation":`...), st.Allocation)
	}
	b = jsonw.Slice(append(b, `,"devices":`...), st.Devices)
	if st.Chaos != nil {
		b = st.Chaos.AppendJSON(append(b, `,"chaos":`...))
	}
	if st.FlowImpact != nil {
		b = st.FlowImpact.AppendJSON(append(b, `,"flow_impact":`...))
	}
	if st.Robust != nil {
		b = st.Robust.AppendJSON(append(b, `,"robust":`...))
	}
	return append(b, '}')
}

// PairAllocation is one DC pair's current circuit assignment.
type PairAllocation struct {
	A        int `json:"a"`
	B        int `json:"b"`
	Fibers   int `json:"fibers"`
	Residual int `json:"residual"`
}

func (pa PairAllocation) AppendJSON(b []byte) []byte {
	b = jsonw.Int(append(b, `{"a":`...), pa.A)
	b = jsonw.Int(append(b, `,"b":`...), pa.B)
	b = jsonw.Int(append(b, `,"fibers":`...), pa.Fibers)
	b = jsonw.Int(append(b, `,"residual":`...), pa.Residual)
	return append(b, '}')
}

// DeviceStatus is one device's supervision state.
type DeviceStatus struct {
	Name    string `json:"name"`
	Breaker string `json:"breaker"`
	// BreakerSince is when the breaker last changed state (absent until
	// the first transition).
	BreakerSince        *time.Time `json:"breaker_since,omitempty"`
	ConsecutiveFailures int        `json:"consecutive_failures"`
	LastError           string     `json:"last_error,omitempty"`
	RetryInSeconds      float64    `json:"retry_in_seconds,omitempty"`
}

func (ds DeviceStatus) AppendJSON(b []byte) []byte {
	b = jsonw.String(append(b, `{"name":`...), ds.Name)
	b = jsonw.String(append(b, `,"breaker":`...), ds.Breaker)
	if ds.BreakerSince != nil {
		b = jsonw.Time(append(b, `,"breaker_since":`...), *ds.BreakerSince)
	}
	b = jsonw.Int(append(b, `,"consecutive_failures":`...), ds.ConsecutiveFailures)
	if ds.LastError != "" {
		b = jsonw.String(append(b, `,"last_error":`...), ds.LastError)
	}
	if ds.RetryInSeconds != 0 {
		b = jsonw.Float(append(b, `,"retry_in_seconds":`...), ds.RetryInSeconds)
	}
	return append(b, '}')
}

// brief is the part of Status its flags and breakers decide, without
// the rows: what /healthz, a history record's health bracket and a chaos
// cycle's settle step read.
type brief struct {
	healthy, needRepair, pending, auditOK bool
	lastReconfigID                        uint64
}

func (d *Daemon) brief() brief {
	b := brief{healthy: d.Healthy()}
	d.mu.Lock()
	b.needRepair, b.pending, b.auditOK = d.needRepair, d.pending != nil, d.lastAuditOK
	b.lastReconfigID = d.lastReconfigID
	d.mu.Unlock()
	return b
}

// serving: every breaker closed and the devices need no repair — what
// /healthz answers 200 for.
func (b brief) serving() bool { return b.healthy && !b.needRepair }

// converged: serving, nothing pending, and the last audit passed.
func (b brief) converged() bool { return b.serving() && !b.pending && b.auditOK }

// allocRowsLocked returns lkg as /status lists it: every pair with a
// circuit or a residual, in pair order. The first call after a change
// builds the rows; settleLocked drops them. Callers hold d.mu and
// haveLKG is set.
func (d *Daemon) allocRowsLocked() []PairAllocation {
	if d.rows != nil {
		return d.rows
	}
	rows := make([]PairAllocation, 0, len(d.lkg.Fibers))
	for p, f := range d.lkg.Fibers {
		if r := d.lkg.Residual[p]; f > 0 || r > 0 {
			rows = append(rows, PairAllocation{A: p.A, B: p.B, Fibers: f, Residual: r})
		}
	}
	for p, r := range d.lkg.Residual {
		if _, counted := d.lkg.Fibers[p]; !counted && r > 0 {
			rows = append(rows, PairAllocation{A: p.A, B: p.B, Residual: r})
		}
	}
	slices.SortFunc(rows, func(a, b PairAllocation) int {
		return hose.Pair{A: a.A, B: a.B}.Compare(hose.Pair{A: b.A, B: b.B})
	})
	d.rows = rows
	return rows
}

// Status snapshots the daemon's current intent and device supervision
// state. Allocation is built once per commit and shared by every Status
// until the next, like CommittedAlloc's allocation: callers read it and
// must not modify it.
func (d *Daemon) Status() Status {
	now := d.now()
	b := d.brief()
	st := Status{
		Healthy:        b.healthy,
		NeedRepair:     b.needRepair,
		Converged:      b.converged(),
		PendingShift:   b.pending,
		LastAuditOK:    b.auditOK,
		LastReconfigID: b.lastReconfigID,
	}

	d.mu.Lock()
	st.Steps = d.steps
	st.LastError = d.lastErr
	if !d.lastAuditAt.IsZero() {
		at := d.lastAuditAt
		st.LastAuditAt = &at
	}
	if d.haveLKG {
		st.AllocationAgeSeconds = now.Sub(d.lastGoodAt).Seconds()
		st.Allocation = d.allocRowsLocked()
	}
	st.Circuits = d.fab.CircuitCount()
	d.mu.Unlock()

	st.Devices = slices.Grow(st.Devices, len(d.names))
	d.hmu.Lock()
	for _, name := range d.names {
		h := d.health[name]
		ds := DeviceStatus{
			Name:                name,
			Breaker:             h.state.String(),
			ConsecutiveFailures: h.consecFails,
			LastError:           h.lastErr,
		}
		if !h.since.IsZero() {
			since := h.since
			ds.BreakerSince = &since
		}
		if h.state == breakerOpen && h.openUntil.After(now) {
			ds.RetryInSeconds = h.openUntil.Sub(now).Seconds()
		}
		st.Devices = append(st.Devices, ds)
	}
	d.hmu.Unlock()

	if d.cfg.Chaos != nil {
		snap := d.cfg.Chaos.Snapshot()
		st.Chaos = &snap
	}
	if d.cfg.FlowMonitor != nil {
		st.FlowImpact = d.cfg.FlowMonitor.Last()
	}
	st.Robust = d.robustStatus()
	return st
}

// eventsDump is the /debug/events payload: the flight recorder's raw
// events plus, when filtered to one trace, the assembled span tree.
type eventsDump struct {
	// ReconfigID echoes the ?reconfig= filter (0 = unfiltered dump).
	ReconfigID uint64        `json:"reconfig_id,omitempty"`
	Events     []trace.Event `json:"events"`
	// Tree is the span forest assembled from Events (roots only when
	// filtered; omitted for the firehose dump to keep it cheap).
	Tree []*trace.Node `json:"tree,omitempty"`
}

// debugEvents snapshots the flight recorder, optionally filtered to one
// reconfiguration's trace.
func (d *Daemon) debugEvents(reconfigID uint64) eventsDump {
	dump := eventsDump{
		ReconfigID: reconfigID,
		Events:     d.tracer.Events(trace.Filter{TraceID: reconfigID}),
	}
	if reconfigID != 0 {
		dump.Tree = trace.Tree(dump.Events)
	}
	return dump
}

// Handler returns the daemon's HTTP surface:
//
//	GET /metrics       — Prometheus text exposition of the daemon's metrics
//	GET /status        — Status as JSON
//	GET /healthz       — 200 while healthy and repaired, 503 while degraded
//	GET /debug/events  — flight-recorder dump; ?reconfig=<id> filters to one
//	                     trace and includes its assembled span tree (404
//	                     for unknown reconfig IDs)
//	GET /debug/trace   — last-N span trees (?n=, default 5), oldest first
//
// The topology intelligence API (/api/paths, /api/critical, /api/whatif,
// /api/history — see package topoapi) is mounted on the same mux.
//
// When a chaos injector is configured, /debug/chaos additionally serves
// its snapshot (GET) and accepts fault injections (POST) — see
// chaos.Injector.Handler — and POST /debug/chaos/cycle drives one full
// failure-recovery cycle synchronously (ChaosCycle), recording it in the
// history lake; a client that goes fails the cycle.
func (d *Daemon) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = d.reg.WriteText(w)
	})
	mux.HandleFunc("/status", func(w http.ResponseWriter, r *http.Request) {
		st := d.Status()
		httpjson.Write(w, http.StatusOK, &st)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if d.brief().serving() {
			w.WriteHeader(http.StatusOK)
			_, _ = w.Write([]byte("ok\n"))
			return
		}
		w.WriteHeader(http.StatusServiceUnavailable)
		_, _ = w.Write([]byte("degraded\n"))
	})
	mux.HandleFunc("/debug/events", func(w http.ResponseWriter, r *http.Request) {
		var id uint64
		if v := r.URL.Query().Get("reconfig"); v != "" {
			parsed, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				http.Error(w, "bad reconfig id: "+err.Error(), http.StatusBadRequest)
				return
			}
			id = parsed
		}
		dump := d.debugEvents(id)
		if id != 0 && len(dump.Events) == 0 {
			httpjson.Error(w, http.StatusNotFound, "no events for reconfig "+strconv.FormatUint(id, 10))
			return
		}
		httpjson.Write(w, http.StatusOK, dump)
	})
	mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, r *http.Request) {
		n := 5
		if v := r.URL.Query().Get("n"); v != "" {
			parsed, err := strconv.Atoi(v)
			if err != nil || parsed <= 0 {
				http.Error(w, "bad n", http.StatusBadRequest)
				return
			}
			n = parsed
		}
		trees := d.tracer.Traces(n)
		if trees == nil {
			trees = []*trace.Node{}
		}
		httpjson.Write(w, http.StatusOK, trees)
	})
	if d.cfg.Chaos != nil {
		mux.Handle("/debug/chaos", d.cfg.Chaos.Handler())
		mux.HandleFunc("/debug/chaos/cycle", func(w http.ResponseWriter, r *http.Request) {
			if r.Method != http.MethodPost {
				httpjson.Error(w, http.StatusMethodNotAllowed, "POST only")
				return
			}
			q := r.URL.Query()
			d.mu.Lock()
			m := d.fab.Deployment().Region.Map
			d.mu.Unlock()
			var sc chaos.Scenario
			var err error
			if spec := q.Get("scenario"); spec != "" {
				sc, err = chaos.ParseScenario(m, spec)
			} else {
				sc, err = chaos.ScenarioFromQuery(m, q)
			}
			if err != nil {
				httpjson.Error(w, http.StatusBadRequest, err.Error())
				return
			}
			timeout := 30 * time.Second
			if v := q.Get("timeout"); v != "" {
				parsed, err := time.ParseDuration(v)
				if err != nil || parsed <= 0 {
					httpjson.Error(w, http.StatusBadRequest, "bad timeout")
					return
				}
				timeout = parsed
			}
			// Run's loop steps and probes the region meanwhile, and the
			// cycle's replan takes its turn with them on loop; the cycle
			// ends with the request.
			res, err := d.chaosCycle(r.Context(), sc, CycleOptions{Timeout: timeout}, true)
			if err != nil {
				httpjson.Error(w, http.StatusInternalServerError, err.Error())
				return
			}
			httpjson.Write(w, http.StatusOK, res)
		})
	}
	topoapi.New(topoapi.Config{State: d.topoSnapshot, Lake: d.cfg.History}).Register(mux)
	return mux
}
