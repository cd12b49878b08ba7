package daemon

import (
	"encoding/json"
	"math"
	"net/http/httptest"
	"strings"
	"testing"

	"iris/internal/history"
	"iris/internal/robust"
	"iris/internal/telemetry"
	"iris/internal/traffic/traffictest"
)

// TestRobustModeSkipsAndEscapes is the robust-policy end-to-end scenario:
// the first shift commits an envelope, a second shift inside it is
// absorbed with zero device operations, and a third far outside forces an
// envelope-escape re-plan recorded in the history lake.
func TestRobustModeSkipsAndEscapes(t *testing.T) {
	rig := toyRig(t, nil)
	reg := telemetry.NewRegistry()
	lake, err := history.New(history.Config{Capacity: 64, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	feed := traffictest.NewReplay(
		toyMatrix(rig, 60, 45),  // first plan: envelope = 1.15 × this
		toyMatrix(rig, 65, 48),  // within 69 / 51.75 → absorbed
		toyMatrix(rig, 200, 45), // 200 > 69 → escape, re-plan
	)
	d, err := New(Config{
		Fab:        rig.Fab,
		Controller: rig.Testbed.Controller,
		Feed:       feed,
		Registry:   reg,
		Logger:     testLogger(t),
		History:    lake,
		// Forecast 0 keeps the envelope a pure function of the replayed
		// window, so every assertion below is deterministic.
		Robust: &robust.Config{Window: 4, Headroom: 1.15, Forecast: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	d.ProbeOnce()

	// Shift 1: no envelope yet → full robust plan, one reconfiguration.
	d.Step()
	if err := d.Audit(); err != nil {
		t.Fatalf("audit after first robust plan: %v", err)
	}
	if got := counterValue(t, reg, "iris_reconfig_total"); got != 1 {
		t.Fatalf("iris_reconfig_total = %v after first shift, want 1", got)
	}
	st := d.Status()
	if st.Robust == nil || !st.Robust.Enabled {
		t.Fatalf("status missing robust block: %+v", st.Robust)
	}
	if st.Robust.Matrices != 1 || !st.Robust.AllAdmissible {
		t.Errorf("robust status after first plan = %+v, want matrices=1 all_admissible", st.Robust)
	}
	if st.Robust.Overprovision < 1 || st.Robust.Headroom < 1 {
		t.Errorf("robust status ratios = %+v, want ≥ 1", st.Robust)
	}

	// Shift 2: inside the committed envelope → absorbed, no device ops, no
	// history record.
	d.Step()
	if got := counterValue(t, reg, "iris_reconfig_total"); got != 1 {
		t.Errorf("iris_reconfig_total = %v after contained shift, want still 1", got)
	}
	if got := counterValue(t, reg, "iris_robust_in_envelope_total"); got != 1 {
		t.Errorf("iris_robust_in_envelope_total = %v, want 1", got)
	}
	st = d.Status()
	if !st.Converged {
		t.Errorf("contained shift left daemon unconverged: %+v", st)
	}
	if st.Robust.InEnvelope != 1 || st.Robust.Escapes != 0 {
		t.Errorf("robust counters after contained shift = %+v, want in_envelope=1 escapes=0", st.Robust)
	}
	if st.Robust.Utilization <= 0 || st.Robust.Utilization > 1+1e-9 {
		t.Errorf("contained utilization = %v, want in (0, 1]", st.Robust.Utilization)
	}

	// Shift 3: escapes the envelope → re-plan, second reconfiguration,
	// history record with the envelope-escape trigger.
	d.Step()
	if err := d.Audit(); err != nil {
		t.Fatalf("audit after escape re-plan: %v", err)
	}
	if got := counterValue(t, reg, "iris_reconfig_total"); got != 2 {
		t.Errorf("iris_reconfig_total = %v after escape, want 2", got)
	}
	if got := counterValue(t, reg, "iris_robust_escapes_total"); got != 1 {
		t.Errorf("iris_robust_escapes_total = %v, want 1", got)
	}
	st = d.Status()
	if st.Robust.Escapes != 1 {
		t.Errorf("robust status escapes = %d, want 1", st.Robust.Escapes)
	}

	var escapeRecs int
	for _, rec := range lake.Records(0, math.MaxUint64) {
		if rec.Trigger == history.TriggerEnvelopeEscape {
			escapeRecs++
		}
	}
	if escapeRecs != 1 {
		t.Errorf("history lake has %d envelope-escape records, want 1", escapeRecs)
	}

	// The envelope audit endpoint sees the committed envelope and reports
	// the live (post-escape, re-planned) matrix as contained.
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()
	res, err := srv.Client().Get(srv.URL + "/api/whatif?audit=envelope")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != 200 {
		t.Fatalf("envelope audit status = %d, want 200", res.StatusCode)
	}
	var audit struct {
		Envelope struct {
			Matrices int     `json:"matrices"`
			Headroom float64 `json:"headroom"`
			Total    float64 `json:"total"`
		} `json:"envelope"`
		Contained   bool    `json:"contained"`
		Utilization float64 `json:"utilization"`
	}
	if err := json.NewDecoder(res.Body).Decode(&audit); err != nil {
		t.Fatalf("decode envelope audit: %v", err)
	}
	if !audit.Contained {
		t.Errorf("freshly re-planned matrix not contained in its own envelope: %+v", audit)
	}
	if audit.Envelope.Matrices == 0 || audit.Envelope.Total <= 0 {
		t.Errorf("audit envelope block empty: %+v", audit)
	}
	if audit.Utilization <= 0 || audit.Utilization > 1+1e-9 {
		t.Errorf("audit utilization = %v, want in (0, 1]", audit.Utilization)
	}
}

// TestRobustDisabledSurface pins the default mode: no robust status block
// and no iris_robust_* series when no policy is armed.
func TestRobustDisabledSurface(t *testing.T) {
	rig := toyRig(t, nil)
	reg := telemetry.NewRegistry()
	d, err := New(Config{
		Fab:        rig.Fab,
		Controller: rig.Testbed.Controller,
		Feed:       traffictest.NewReplay(toyMatrix(rig, 60, 45)),
		Registry:   reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	d.Step()
	if st := d.Status(); st.Robust != nil {
		t.Errorf("robust status present without a policy: %+v", st.Robust)
	}
	if strings.Contains(metricsText(t, reg), "iris_robust_in_envelope_total") {
		t.Error("iris_robust_in_envelope_total registered without a policy")
	}

	// And the audit endpoint declines cleanly.
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()
	res, err := srv.Client().Get(srv.URL + "/api/whatif?audit=envelope")
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != 404 {
		t.Errorf("envelope audit without robust mode = %d, want 404", res.StatusCode)
	}
}

// TestRobustPairsResolvedIsFullSolve: an envelope solve is a full solve
// over the planned pairs, so the first robust plan observes what a
// per-shift full solve does, len(Plan.Paths), not one entry per circuit
// map row.
func TestRobustPairsResolvedIsFullSolve(t *testing.T) {
	rig := toyRig(t, nil)
	reg := telemetry.NewRegistry()
	d, err := New(Config{
		Fab:        rig.Fab,
		Controller: rig.Testbed.Controller,
		Feed:       traffictest.NewReplay(toyMatrix(rig, 60, 45)),
		Registry:   reg,
		Logger:     testLogger(t),
		Robust:     &robust.Config{},
	})
	if err != nil {
		t.Fatal(err)
	}
	d.ProbeOnce()
	d.Step()
	if got := counterValue(t, reg, "iris_alloc_pairs_resolved_count"); got != 1 {
		t.Fatalf("iris_alloc_pairs_resolved has %v observations after the first plan, want 1", got)
	}
	if got, want := counterValue(t, reg, "iris_alloc_pairs_resolved_sum"), float64(len(rig.Dep.Plan.Paths)); got != want {
		t.Errorf("the first envelope solve resolved %v pairs, want the %v planned pairs", got, want)
	}
}
