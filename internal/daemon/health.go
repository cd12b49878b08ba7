package daemon

import (
	"context"
	"errors"
	"fmt"
	"time"

	"iris/internal/control"
)

// Device health supervision: every device is probed on a fixed cadence.
// The probe fetches the device's whole state, bounded by the controller
// transport's RPC deadline, and that one fetch serves twice: as a liveness
// check for the breaker, and as the audit of the device against the
// committed intent. Consecutive failures trip a per-device circuit
// breaker; a tripped device is quarantined for an exponentially growing,
// jittered cooldown, then given a single half-open trial probe. Success
// closes the breaker; failure re-opens it with a doubled cooldown up to
// the configured maximum.

type breakerState int

const (
	breakerClosed breakerState = iota
	breakerHalfOpen
	breakerOpen
)

func (s breakerState) String() string {
	switch s {
	case breakerHalfOpen:
		return "half-open"
	case breakerOpen:
		return "open"
	default:
		return "closed"
	}
}

type deviceHealth struct {
	state       breakerState
	since       time.Time // when state last transitioned (zero = never)
	consecFails int
	cooldown    time.Duration // next quarantine length (pre-jitter)
	openUntil   time.Time
	lastErr     string
}

// transitionLocked moves a device's breaker to a new state, stamping the
// transition time, updating the gauge, and journaling the flip as an
// instant event in the flight recorder. Callers hold d.hmu.
func (d *Daemon) transitionLocked(traceID uint64, name string, h *deviceHealth, to breakerState) {
	if h.state == to {
		return
	}
	h.state = to
	h.since = d.now()
	d.m.breakerState.With(name).Set(float64(to)) // iota order matches the gauge encoding
	d.tracer.Emit(traceID, "breaker", name, to.String())
}

// ProbeOnce probes every non-quarantined device in one round of "state"
// requests (control.Controller.States, the audit's and the repair's
// fetch), advances each device's breaker by its outcome, and compares
// each state it fetched with the committed intent (control.Expected.Check,
// the audit's own verdict). So every device is audited once per round,
// whether or not traffic moves. A mismatch is a failed audit, as after a
// change: it sets needRepair, fails last_audit_ok, counts in
// iris_audit_failures_total and names the first diverged device, in sorted
// order, and its field in the status's last_error; the next Step repairs
// it. A probe never clears needRepair: only a repair's audit does. A state
// that is not well formed is a *control.DeviceError and counts against the
// device's breaker. The round holds loop, so no write moves a device under
// it. Run calls ProbeOnce on the probe interval; tests call it directly.
//
// The probe owes every device its own verdict, so its visit never stops
// the round: each device's outcome reaches its breaker, and a device that
// answered in time is heard however long a wedged one before it kept the
// round waiting (the deadline judges when a reply arrived), so one hung
// device trips its own breaker and no other.
func (d *Daemon) ProbeOnce() {
	d.loop.Lock()
	defer d.loop.Unlock()
	d.mu.Lock()
	exp := d.fab.Expected()
	d.mu.Unlock()
	admitted := make([]string, 0, len(d.names))
	for _, name := range d.names {
		if d.admitProbe(name) {
			admitted = append(admitted, name)
		}
	}
	var diverged error // the first device's audit verdict, in sorted order
	// The visit never stops the round and the context is never cancelled,
	// so States returns nil.
	_ = d.ctl.States(context.TODO(), admitted, func(name string, st map[string]any, err error) error {
		if audit := d.probe(name, exp, st, err); diverged == nil {
			diverged = audit
		}
		return nil
	})
	d.m.audits.Inc()
	if diverged != nil {
		d.setErr(fmt.Sprintf("probe: audit: %v", diverged))
		if !d.diverged() { // else every round of an outage would log it
			d.log.Warn("probe: devices diverged from intent", "err", diverged)
		}
	}
	d.updateStaleness()
}

// admitProbe decides whether a device gets probed this round, moving an
// expired quarantine to half-open (one trial probe).
func (d *Daemon) admitProbe(name string) bool {
	d.hmu.Lock()
	defer d.hmu.Unlock()
	h, ok := d.health[name]
	if !ok {
		return false
	}
	if h.state == breakerOpen {
		if d.now().Before(h.openUntil) {
			return false // still quarantined
		}
		d.transitionLocked(0, name, h, breakerHalfOpen)
	}
	return true
}

// probe takes one device's fetch — its state, or err — compares the state
// with exp and updates the device's breaker. It returns the comparison's
// error, nil when the state matched or was not fetched.
func (d *Daemon) probe(name string, exp control.Expected, st map[string]any, err error) (audit error) {
	d.m.probes.Inc()
	if err == nil {
		if audit = exp.Check(name, st); errors.As(audit, new(*control.DeviceError)) {
			err = audit
		}
	}
	d.hmu.Lock()
	defer d.hmu.Unlock()
	h := d.health[name]
	if err == nil {
		if h.state != breakerClosed {
			d.log.Info("device healthy; breaker closed", "device", name)
		}
		d.transitionLocked(0, name, h, breakerClosed)
		h.consecFails = 0
		h.cooldown = 0
		h.lastErr = ""
		return audit
	}
	d.m.probeFailures.With(name).Inc()
	d.recordFailureLocked(0, name, h, err)
	return audit
}

// recordFailureLocked registers one failure against a device and trips or
// re-trips its breaker when warranted. traceID attributes the failure to
// the reconfiguration or repair that surfaced it (0 for health probes).
// Callers hold d.hmu.
func (d *Daemon) recordFailureLocked(traceID uint64, name string, h *deviceHealth, err error) {
	h.consecFails++
	h.lastErr = err.Error()
	if h.state != breakerHalfOpen && h.consecFails < d.cfg.FailureThreshold {
		return
	}
	// Trip: exponential cooldown, doubled on every consecutive trip,
	// jittered to [cooldown/2, cooldown] so a fleet of breakers does not
	// retry in lockstep.
	if h.cooldown == 0 {
		h.cooldown = d.cfg.BackoffBase
	} else {
		h.cooldown *= 2
		if h.cooldown > d.cfg.BackoffMax {
			h.cooldown = d.cfg.BackoffMax
		}
	}
	quarantine := h.cooldown/2 + time.Duration(d.rng.Int63n(int64(h.cooldown/2)+1))
	h.openUntil = d.now().Add(quarantine)
	if h.state != breakerOpen {
		d.m.breakerTrips.With(name).Inc()
		d.log.Warn("breaker open",
			"device", name, "consecutive_failures", h.consecFails,
			"retry_in", quarantine.Round(time.Millisecond), "err", err,
			"reconfig_id", traceID)
	}
	d.transitionLocked(traceID, name, h, breakerOpen)
}

// Healthy reports whether every device breaker is closed. While any is
// open or half-open the daemon holds the last-known-good allocation
// instead of attempting reconfigurations.
func (d *Daemon) Healthy() bool {
	d.hmu.Lock()
	defer d.hmu.Unlock()
	for _, h := range d.health {
		if h.state != breakerClosed {
			return false
		}
	}
	return true
}
