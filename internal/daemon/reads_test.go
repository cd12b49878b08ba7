package daemon

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"iris/internal/core"
	"iris/internal/hose"
	"iris/internal/plan"
	"iris/internal/robust"
	"iris/internal/traffic"
	"iris/internal/traffic/traffictest"
)

// liveDemand copies the demand the daemon last converged on.
func liveDemand(d *Daemon) map[hose.Pair]float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make(map[hose.Pair]float64, len(d.lastMatrix.Demand))
	for p, dm := range d.lastMatrix.Demand {
		out[p] = dm
	}
	return out
}

// readBody GETs url twice and returns the body, failing unless both are
// 200, byte-identical and compact JSON.
func readBody(t *testing.T, h http.Handler, url string) []byte {
	t.Helper()
	var first []byte
	for i := 0; i < 2; i++ {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, url, nil))
		if w.Code != http.StatusOK {
			t.Fatalf("GET %s = %d: %s", url, w.Code, w.Body)
		}
		if i == 0 {
			first = w.Body.Bytes()
		} else if !bytes.Equal(w.Body.Bytes(), first) {
			t.Fatalf("GET %s: two reads between commits differ", url)
		}
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, first); err != nil || !bytes.Equal(compact.Bytes(), first) {
		t.Fatalf("GET %s: body is not compact JSON (err %v): %.200s", url, err, first)
	}
	return first
}

// checkReads holds every topology read to values recomputed from the
// daemon's committed state: hop occupancy to core.Occupancy of the
// committed allocation, stranded demand (critical and what-if) to the
// replay oracle over the live matrix, and the envelope audit to the
// committed envelope. Two reads share one snapshot.
func checkReads(t *testing.T, d *Daemon, h http.Handler) {
	t.Helper()
	if a, b := d.topoSnapshot(), d.topoSnapshot(); a == nil || a != b {
		t.Fatalf("two reads between commits got snapshots %p and %p, want one", a, b)
	}
	d.mu.Lock()
	dep, live := d.fab.Deployment(), d.lastMatrix
	var res *robust.Result
	if d.robust != nil {
		res = d.robust.Tally().Committed
	}
	d.mu.Unlock()
	alloc, _ := d.CommittedAlloc()
	fibers, residual := core.Occupancy(dep, alloc)

	dcs := dep.Region.Map.DCs()
	used := 0
	for i, a := range dcs {
		for _, b := range dcs[i+1:] {
			var out struct {
				Paths []struct {
					Hops []struct {
						Duct          int `json:"duct"`
						UsedFibers    int `json:"used_fibers"`
						ResidualUsers int `json:"residual_users"`
					} `json:"hops"`
				} `json:"paths"`
			}
			body := readBody(t, h, fmt.Sprintf("/api/paths?from=%d&to=%d&k=3", a, b))
			if err := json.Unmarshal(body, &out); err != nil {
				t.Fatal(err)
			}
			for _, p := range out.Paths {
				for _, hop := range p.Hops {
					if hop.UsedFibers != fibers[hop.Duct] || hop.ResidualUsers != residual[hop.Duct] {
						t.Fatalf("duct %d: /api/paths reports %d fibers, %d residual users; the committed allocation has %d, %d",
							hop.Duct, hop.UsedFibers, hop.ResidualUsers, fibers[hop.Duct], residual[hop.Duct])
					}
					used += hop.UsedFibers + hop.ResidualUsers
				}
			}
		}
	}
	if used == 0 {
		t.Fatal("no hop carries the allocation; the occupancy check is vacuous")
	}

	base := plan.BaseGraph(dep.Region.Map)
	ids, worst, solo := replayCritical(base, liveDemand(d), 2)
	var crit struct {
		Ducts []struct {
			Duct           int     `json:"duct"`
			StrandedDemand float64 `json:"stranded_demand"`
			SoloStranded   float64 `json:"solo_stranded"`
		} `json:"ducts"`
	}
	if err := json.Unmarshal(readBody(t, h, "/api/critical?k=2"), &crit); err != nil {
		t.Fatal(err)
	}
	for _, row := range crit.Ducts {
		if row.StrandedDemand != worst[row.Duct] || row.SoloStranded != solo[row.Duct] {
			t.Fatalf("duct %d: /api/critical strands (%v, solo %v); the live matrix strands (%v, solo %v)",
				row.Duct, row.StrandedDemand, row.SoloStranded, worst[row.Duct], solo[row.Duct])
		}
	}
	for _, id := range ids {
		var whatif struct {
			StrandedDemand float64 `json:"stranded_demand"`
		}
		if err := json.Unmarshal(readBody(t, h, fmt.Sprintf("/api/whatif?scenario=cut:%d", id)), &whatif); err != nil {
			t.Fatal(err)
		}
		if whatif.StrandedDemand != solo[id] {
			t.Fatalf("cut:%d: /api/whatif strands %v; the live matrix strands %v", id, whatif.StrandedDemand, solo[id])
		}
	}

	if res != nil {
		var audit struct {
			Envelope struct {
				Total float64 `json:"total"`
			} `json:"envelope"`
			Contained   bool    `json:"contained"`
			Utilization float64 `json:"utilization"`
		}
		if err := json.Unmarshal(readBody(t, h, "/api/whatif?audit=envelope"), &audit); err != nil {
			t.Fatal(err)
		}
		env := res.Envelope
		util := env.Utilization(live)
		if math.IsInf(util, 0) {
			util = -1
		}
		if audit.Envelope.Total != env.Total || audit.Contained != env.Contains(live) || audit.Utilization != util {
			t.Fatalf("envelope audit %+v; the committed envelope says total %v, contained %v, utilization %v",
				audit, env.Total, env.Contains(live), util)
		}
	}
	readBody(t, h, "/status")
}

// TestReadsFollowCommits drives committing steps, no-op ticks and, in
// robust mode, every way the envelope path changes the committed state,
// and after each holds every read to the state just committed. The
// daemon keeps one read snapshot between commits; a change that forgot
// to drop it would be answered from the state before.
func TestReadsFollowCommits(t *testing.T) {
	type shift struct {
		d01, d02 float64
		commits  bool
		what     string
	}
	for _, tc := range []struct {
		name   string
		robust *robust.Config
		shifts []shift
	}{
		{"per-shift", nil, []shift{
			{60, 45, true, "first commit"},
			{59.5, 45, false, "less demand on the same circuits (60 wavelengths)"},
			{20, 95, true, "a change of circuits"},
		}},
		// Headroom 1 makes the envelope the window's maximum, so a small
		// escape re-plans onto the same circuits.
		{"robust", &robust.Config{Window: 4, Headroom: 1}, []shift{
			{60.5, 45, true, "first envelope"},
			{60.2, 44, false, "a shift inside the envelope"},
			{60.6, 45, false, "an escape re-planned onto the same circuits"},
			{200, 45, true, "an escape that moves circuits"},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rig := toyRig(t, nil)
			mats := make([]*traffic.Matrix, len(tc.shifts))
			for i, s := range tc.shifts {
				mats[i] = toyMatrix(rig, s.d01, s.d02)
			}
			d, err := New(Config{
				Fab:        rig.Fab,
				Controller: rig.Testbed.Controller,
				Feed:       traffictest.NewReplay(mats...),
				Now:        newFakeClock().Now,
				Logger:     testLogger(t),
				Robust:     tc.robust,
			})
			if err != nil {
				t.Fatal(err)
			}
			h := d.Handler()
			d.ProbeOnce()
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/api/paths?from=0&to=1", nil))
			if w.Code != http.StatusServiceUnavailable || d.topoSnapshot() != nil {
				t.Fatalf("before the first commit /api/paths = %d, want 503 and no snapshot", w.Code)
			}
			prev := d.topoSnapshot()
			for _, s := range tc.shifts {
				id := d.Status().LastReconfigID
				d.Step()
				st := d.Status()
				if st.LastError != "" || !st.Converged {
					t.Fatalf("%s: %+v", s.what, st)
				}
				if committed := st.LastReconfigID != id; committed != s.commits {
					t.Fatalf("%s: committed a change = %v, want %v", s.what, committed, s.commits)
				}
				if d.topoSnapshot() == prev {
					t.Fatalf("%s: reads still share the snapshot from before the step", s.what)
				}
				checkReads(t, d, h)
				prev = d.topoSnapshot()
			}
			if r := d.Status().Robust; tc.robust != nil && (r.InEnvelope != 1 || r.Escapes != 2) {
				t.Fatalf("robust counters %+v, want one shift absorbed and two escapes", r)
			}
		})
	}
}

// TestReadsDuringSteps races reads of every kind against Step, in both
// policies; under go test -race it holds the snapshot hand-off to one
// lock and the envelope policy's tally to its own.
func TestReadsDuringSteps(t *testing.T) {
	for _, tc := range []struct {
		name   string
		robust *robust.Config
	}{{"per-shift", nil}, {"robust", &robust.Config{}}} {
		t.Run(tc.name, func(t *testing.T) {
			rig := toyRig(t, nil)
			d, err := New(Config{Fab: rig.Fab, Controller: rig.Testbed.Controller, Feed: newRedrawFeed(rig, 3),
				Logger: testLogger(t), Robust: tc.robust})
			if err != nil {
				t.Fatal(err)
			}
			h := d.Handler()
			dcs := rig.Dep.Region.Map.DCs()
			urls := []string{
				fmt.Sprintf("/api/paths?from=%d&to=%d", dcs[0], dcs[1]),
				"/api/critical?k=2",
				"/api/whatif?scenario=cut:0",
				"/status",
				"/healthz",
			}
			if tc.robust != nil {
				urls = append(urls, "/api/whatif?audit=envelope")
			}
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for g := 0; g < 2; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						for _, u := range urls {
							w := httptest.NewRecorder()
							h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, u, nil))
							if w.Code != http.StatusOK && w.Code != http.StatusServiceUnavailable {
								t.Errorf("GET %s = %d: %s", u, w.Code, w.Body)
								return
							}
						}
					}
				}()
			}
			d.ProbeOnce()
			for i := 0; i < 30; i++ {
				d.Step()
			}
			close(stop)
			wg.Wait()
		})
	}
}
