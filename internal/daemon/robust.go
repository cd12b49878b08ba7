package daemon

import (
	"fmt"
	"math"

	"iris/internal/history"
	"iris/internal/jsonw"
)

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

func (rs RobustStatus) AppendJSON(b []byte) []byte {
	b = jsonw.Bool(append(b, `{"enabled":`...), rs.Enabled)
	b = jsonw.Int(append(b, `,"window":`...), rs.Window)
	if rs.Matrices != 0 {
		b = jsonw.Int(append(b, `,"matrices":`...), rs.Matrices)
	}
	if rs.Headroom != 0 {
		b = jsonw.Float(append(b, `,"headroom":`...), rs.Headroom)
	}
	if rs.Clamped {
		b = append(b, `,"clamped":true`...)
	}
	b = jsonw.Bool(append(b, `,"all_admissible":`...), rs.AllAdmissible)
	if rs.EnvelopeTotal != 0 {
		b = jsonw.Float(append(b, `,"envelope_total":`...), rs.EnvelopeTotal)
	}
	if rs.ProvisionedWavelengths != 0 {
		b = jsonw.Float(append(b, `,"provisioned_wavelengths":`...), rs.ProvisionedWavelengths)
	}
	if rs.Overprovision != 0 {
		b = jsonw.Float(append(b, `,"overprovision":`...), rs.Overprovision)
	}
	if rs.Utilization != 0 {
		b = jsonw.Float(append(b, `,"utilization":`...), rs.Utilization)
	}
	b = jsonw.Uint(append(b, `,"in_envelope":`...), rs.InEnvelope)
	b = jsonw.Uint(append(b, `,"escapes":`...), rs.Escapes)
	return append(b, '}')
}

// noteEnvelope publishes what the envelope rule made of the shift just
// taken (nothing without one) and returns the history trigger of the
// change it may drive.
func (d *Daemon) noteEnvelope() history.Trigger {
	if d.robust == nil {
		return history.TriggerConverge
	}
	dec := d.robust.Last()
	if dec.Absorbed {
		// The committed allocation already provisions this demand: the
		// shift is absorbed with zero device operations.
		d.m.robustInEnv.Inc()
	}
	trig := history.TriggerConverge
	if len(dec.Escapes) > 0 {
		trig = history.TriggerEnvelopeEscape
		d.m.robustEscapes.Inc()
		e := dec.Escapes[0]
		d.log.Info("robust: demand escaped envelope",
			"pairs", len(dec.Escapes), "worst_pair", fmt.Sprintf("%d-%d", e.Pair.A, e.Pair.B),
			"demand", e.Demand, "limit", e.Limit)
	}
	if sol := dec.Solved; sol != nil {
		d.m.robustHeadroom.Set(sol.Headroom)
		d.m.robustOverprov.Set(sol.Overprovision)
		if !sol.AllAdmissible {
			d.log.Warn("robust: best-effort envelope (not all matrices admissible)",
				"matrices", sol.Envelope.Matrices, "headroom", sol.Headroom)
		}
	}
	return trig
}

// robustStatus assembles /status's robust block (nil without the envelope
// rule). Callers must not hold d.mu.
func (d *Daemon) robustStatus() *RobustStatus {
	if d.robust == nil {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	t := d.robust.Tally()
	st := &RobustStatus{
		Enabled:    true,
		Window:     t.Window,
		InEnvelope: t.Absorbed,
		Escapes:    t.Escapes,
	}
	if res := t.Committed; res != nil {
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
