package fleet

import (
	"net/http"
	"strconv"
	"strings"
	"time"

	"iris/internal/history"
	"iris/internal/httpjson"
	"iris/internal/telemetry"
)

// Handler returns the fleet's aggregated HTTP plane:
//
//	GET  /metrics        — fleet-level iris_fleet_* metrics followed by
//	                       every region's iris_* metrics, each sample
//	                       stamped with a region label
//	GET  /status         — fleet Status as JSON (per-region rows + skew)
//	GET  /healthz        — 200 while every region is healthy, 503 with
//	                       the unhealthy region ids otherwise
//	GET  /demand         — latest bus samples plus the skew report
//	GET  /api/history    — per-region reconfiguration history summaries
//	                       (?n= bounds rows per region, default 10)
//	POST /chaos          — run a correlated storm: ?k=2&seed=7&cuts=1
//	                       [&region=r003&region=r007] [&timeout=30s];
//	                       blocks until every cycle completes (or the
//	                       client goes) and returns the outcomes as JSON
//	*    /regions/{id}/… — reverse-proxy to region id's own debug
//	                       surface (its /metrics, /status, /debug/chaos,
//	                       flight recorder, …)
func (f *Fleet) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := f.reg.WriteText(w); err != nil {
			return
		}
		regs := make([]telemetry.LabeledRegistry, len(f.members))
		for i, m := range f.members {
			regs[i] = telemetry.LabeledRegistry{Value: m.id, Reg: m.r.Registry()}
		}
		_ = telemetry.MergeText(w, "region", regs)
	})
	mux.HandleFunc("/status", func(w http.ResponseWriter, r *http.Request) {
		httpjson.Write(w, http.StatusOK, f.Status())
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		var degraded []string
		for _, m := range f.members {
			if !m.r.Healthy() {
				degraded = append(degraded, m.id)
			}
		}
		if len(degraded) == 0 {
			w.WriteHeader(http.StatusOK)
			_, _ = w.Write([]byte("ok\n"))
			return
		}
		w.WriteHeader(http.StatusServiceUnavailable)
		_, _ = w.Write([]byte("degraded: " + strings.Join(degraded, " ") + "\n"))
	})
	mux.HandleFunc("/demand", func(w http.ResponseWriter, r *http.Request) {
		httpjson.Write(w, http.StatusOK, struct {
			Skew    SkewReport     `json:"skew"`
			Samples []demandSample `json:"samples"`
		}{f.bus.skew(), f.bus.snapshot()})
	})
	mux.HandleFunc("/api/history", func(w http.ResponseWriter, r *http.Request) {
		n, err := intParam(r, "n", 10)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		out := make([]regionHistory, 0, len(f.members))
		for _, m := range f.members {
			row := regionHistory{Region: m.id}
			if lake := m.r.History(); lake != nil {
				row.Enabled = true
				row.Total = lake.Len()
				row.Evicted = lake.Evicted()
				row.Records = lake.Summaries(n)
			}
			out = append(out, row)
		}
		httpjson.Write(w, http.StatusOK, out)
	})
	mux.HandleFunc("/chaos", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		cfg := StormConfig{Regions: r.URL.Query()["region"]}
		var err error
		if cfg.K, err = intParam(r, "k", 1); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if cfg.Cuts, err = intParam(r, "cuts", 1); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if v := r.URL.Query().Get("seed"); v != "" {
			if cfg.Seed, err = strconv.ParseInt(v, 10, 64); err != nil {
				http.Error(w, "bad seed: "+err.Error(), http.StatusBadRequest)
				return
			}
		}
		if v := r.URL.Query().Get("timeout"); v != "" {
			if cfg.Cycle.Timeout, err = time.ParseDuration(v); err != nil {
				http.Error(w, "bad timeout: "+err.Error(), http.StatusBadRequest)
				return
			}
		}
		httpjson.Write(w, http.StatusOK, f.Storm(r.Context(), cfg))
	})
	mux.HandleFunc("/regions/", func(w http.ResponseWriter, r *http.Request) {
		rest := strings.TrimPrefix(r.URL.Path, "/regions/")
		id, _, _ := strings.Cut(rest, "/")
		m := f.member(id)
		if m == nil {
			http.Error(w, "unknown region "+strconv.Quote(id), http.StatusNotFound)
			return
		}
		http.StripPrefix("/regions/"+id, m.r.Handler()).ServeHTTP(w, r)
	})
	return mux
}

// regionHistory is one region's row in the fleet /api/history listing.
// The full per-record detail (span trees, alloc diffs) lives on the
// region's own surface: /regions/{id}/api/history/{reconfig_id}.
type regionHistory struct {
	Region  string            `json:"region"`
	Enabled bool              `json:"enabled"`
	Total   int               `json:"total"`
	Evicted int               `json:"evicted"`
	Records []history.Summary `json:"records,omitempty"`
}

func intParam(r *http.Request, name string, def int) (int, error) {
	v := r.URL.Query().Get(name)
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n <= 0 {
		return 0, &paramErr{name, v}
	}
	return n, nil
}

type paramErr struct{ name, val string }

func (e *paramErr) Error() string { return "bad " + e.name + ": " + strconv.Quote(e.val) }
