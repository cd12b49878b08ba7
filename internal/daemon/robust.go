package daemon

import (
	"fmt"
	"math"

	"iris/internal/core"
	"iris/internal/history"
	"iris/internal/robust"
	"iris/internal/traffic"
)

// robustPolicy arms METTEOR-style robust reconfiguration: the daemon
// solves one envelope allocation over a window of recent matrices (plus
// optional change-process forecasts) and skips device reconfiguration
// while the live demand stays inside the committed envelope, re-planning
// only on escape. Construct via daemon.Config.Robust; zero fields select
// the defaults.
type robustPolicy struct {
	// Window is how many recent matrices the envelope is solved over
	// (default 4).
	Window int
	// Forecast appends this many change-process forecast steps beyond the
	// newest matrix to the envelope's set (0 disables forecasting).
	Forecast int
	// CP is the change process forecasts are rolled with; required when
	// Forecast > 0 (it should match the live feed's process).
	CP traffic.ChangeProcess
	// Seed isolates the forecast branch's randomness from the live feed.
	Seed int64
	// Headroom, Shrink and Budget mirror robust.Config (zero selects its
	// defaults: 1.15, 0.5, 8).
	Headroom float64
	Shrink   float64
	Budget   int
}

// defaultRobustWindow is the envelope's matrix window when the policy
// leaves it zero, and the -robust-window default.
const defaultRobustWindow = 4

func (p robustPolicy) withDefaults() robustPolicy {
	if p.Window <= 0 {
		p.Window = defaultRobustWindow
	}
	if p.Forecast < 0 {
		p.Forecast = 0
	}
	return p
}

// RobustStatus is /status's robust block: the committed envelope and the
// policy's skip/escape history.
type RobustStatus struct {
	Enabled bool `json:"enabled"`
	// Window is the policy's matrix-window bound; Matrices is the size of
	// the set the committed envelope was solved over (window + forecasts).
	Window   int `json:"window"`
	Matrices int `json:"matrices,omitempty"`
	// Headroom is the committed envelope's inflation factor; Clamped
	// records that it was scaled into the hose polytope.
	Headroom float64 `json:"headroom,omitempty"`
	Clamped  bool    `json:"clamped,omitempty"`
	// AllAdmissible: every matrix of the solved set verified against the
	// committed allocation.
	AllAdmissible bool `json:"all_admissible"`
	// EnvelopeTotal is the envelope's total demand in wavelengths;
	// ProvisionedWavelengths and Overprovision are the METTEOR capacity
	// cost (provisioned over the set's mean demand).
	EnvelopeTotal          float64 `json:"envelope_total,omitempty"`
	ProvisionedWavelengths float64 `json:"provisioned_wavelengths,omitempty"`
	Overprovision          float64 `json:"overprovision,omitempty"`
	// Utilization is the live matrix's worst per-pair fill of the
	// envelope (1 at the boundary).
	Utilization float64 `json:"utilization,omitempty"`
	// InEnvelope counts shifts absorbed without reconfiguration; Escapes
	// counts shifts that forced a re-plan.
	InEnvelope uint64 `json:"in_envelope"`
	Escapes    uint64 `json:"escapes"`
}

// convergeRobust is the robust-mode converge path: record the shift in
// the window, skip everything if the committed envelope still contains
// it, otherwise solve a fresh envelope over the window (plus forecasts)
// and drive the devices there through the shared commit path.
func (d *Daemon) convergeRobust(tm *traffic.Matrix) error {
	pol := d.cfg.Robust
	d.robustWin.Push(tm)

	d.mu.Lock()
	res, lkg, haveLKG := d.robustRes, d.lkg, d.haveLKG
	d.mu.Unlock()

	if res != nil && res.Envelope.Contains(tm) {
		// The committed allocation already provisions this demand: absorb
		// the shift with zero device operations.
		d.m.robustInEnv.Inc()
		d.mu.Lock()
		d.robustInEnvN++
		d.settleLocked(d.allocState, tm)
		d.mu.Unlock()
		return nil
	}

	trig := history.TriggerConverge
	if res != nil {
		trig = history.TriggerEnvelopeEscape
		d.m.robustEscapes.Inc()
		d.mu.Lock()
		d.robustEscapeN++
		escapes := res.Envelope.Escapes(tm)
		d.mu.Unlock()
		if len(escapes) > 0 {
			e := escapes[0]
			d.log.Info("robust: demand escaped envelope",
				"pairs", len(escapes), "worst_pair", fmt.Sprintf("%d-%d", e.Pair.A, e.Pair.B),
				"demand", e.Demand, "limit", e.Limit)
		}
	}

	ms := d.robustWin.Matrices()
	if pol.Forecast > 0 {
		// Seed the branch by the window's progress so successive re-plans
		// explore fresh forecast noise, deterministically under one seed.
		d.mu.Lock()
		step := d.steps
		d.mu.Unlock()
		ms = append(ms, traffic.Forecast(pol.Seed+int64(step), tm, pol.CP, pol.Forecast)...)
	}

	d.mu.Lock()
	fab := d.fab
	d.mu.Unlock()
	sol, err := robust.Solve(fab.Deployment(), ms, robust.Config{
		Headroom: pol.Headroom, Shrink: pol.Shrink, Budget: pol.Budget,
	})
	if err != nil {
		d.m.allocFailures.Inc()
		d.dropPending()
		return fmt.Errorf("robust plan: %w", err)
	}
	// Envelope solves are always full solves over the planned pairs.
	d.m.allocFallback.Inc()
	d.m.allocPairs.Observe(float64(len(sol.Alloc.Fibers) + len(sol.Alloc.Residual)))
	d.m.robustHeadroom.Set(sol.Headroom)
	d.m.robustOverprov.Set(sol.Overprovision)
	if !sol.AllAdmissible {
		d.log.Warn("robust: best-effort envelope (not all matrices admissible)",
			"matrices", len(ms), "headroom", sol.Headroom)
	}

	if haveLKG && sol.Alloc.Equal(lkg) {
		// Same circuits, fresher envelope: swap the books without touching
		// a device (and without a history record — nothing moved).
		d.mu.Lock()
		d.robustRes = sol
		d.settleLocked(sol.State, tm)
		d.mu.Unlock()
		return nil
	}

	attr := fmt.Sprintf("robust=true matrices=%d headroom=%.3f overprovision=%.2f admissible=%v",
		len(ms), sol.Headroom, sol.Overprovision, sol.AllAdmissible)
	return d.commitChange(tm, sol.State, sol.Alloc, core.Undo{}, trig, attr,
		func() { d.robustRes = sol })
}

// robustStatus assembles /status's robust block (nil without a policy).
// Callers must not hold d.mu.
func (d *Daemon) robustStatus() *RobustStatus {
	pol := d.cfg.Robust
	if pol == nil {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	st := &RobustStatus{
		Enabled:    true,
		Window:     pol.Window,
		InEnvelope: d.robustInEnvN,
		Escapes:    d.robustEscapeN,
	}
	if res := d.robustRes; res != nil {
		st.Matrices = res.Envelope.Matrices
		st.Headroom = res.Headroom
		st.Clamped = res.Envelope.Clamped
		st.AllAdmissible = res.AllAdmissible
		st.EnvelopeTotal = res.Envelope.Total
		st.ProvisionedWavelengths = res.ProvisionedWavelengths
		st.Overprovision = res.Overprovision
		if d.lastMatrix != nil {
			st.Utilization = res.Envelope.Utilization(d.lastMatrix)
			if math.IsInf(st.Utilization, 0) {
				// JSON has no Inf; -1 marks demand on a pair the envelope
				// holds zero capacity for.
				st.Utilization = -1
			}
		}
	}
	return st
}
