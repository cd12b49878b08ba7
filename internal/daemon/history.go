package daemon

import (
	"time"

	"iris/internal/core"
	"iris/internal/history"
	"iris/internal/topoapi"
	"iris/internal/trace"
	"iris/internal/traffic"
)

// History returns the daemon's reconfiguration history lake (nil when
// none was configured).
func (d *Daemon) History() *history.Lake { return d.cfg.History }

// CommittedAlloc returns the last-known-good allocation the devices are
// serving (ok=false before the first convergence). The allocation is a
// committed snapshot — the incremental allocator mutates its own books,
// never this value — so callers may read it without copying.
func (d *Daemon) CommittedAlloc() (core.Allocation, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.lkg, d.haveLKG
}

// healthBrief is the health triple history records bracket
// reconfigurations with.
func (d *Daemon) healthBrief() history.Health {
	b := d.brief()
	return history.Health{Healthy: b.healthy, Converged: b.converged(), NeedRepair: b.needRepair}
}

// hoseAgg summarises a demand matrix for a history record (zero for nil,
// the state before the first convergence).
func hoseAgg(m *traffic.Matrix) history.HoseAggregate {
	var agg history.HoseAggregate
	if m == nil {
		return agg
	}
	agg.Total = m.Total() // summed in pair order: the same bits every run
	for _, dm := range m.Demand {
		if dm <= 0 {
			continue
		}
		agg.Pairs++
		if dm > agg.MaxPair {
			agg.MaxPair = dm
		}
	}
	return agg
}

// recordHistory appends one record to the history lake (no-op without
// one), capturing the operation's trace from the flight recorder. Call it
// after the operation's root span has finished so the captured Spans
// include the complete trace.
func (d *Daemon) recordHistory(trig history.Trigger, id uint64, at time.Time,
	preHealth history.Health, pre, post *traffic.Matrix,
	pairs []core.PairDelta, dep *core.Deployment, opErr error) {
	if rec, ok := d.historyRecord(trig, id, at, preHealth, pre, post, pairs, dep, opErr); ok {
		d.appendHistory(rec, d.tracer.Events(trace.Filter{TraceID: id}))
	}
}

// historyRecord builds an operation's record for the history lake (ok
// false without one), summarising the demand before and after (hoseAgg)
// only then: all of it but the trace, which appendHistory adds.
func (d *Daemon) historyRecord(trig history.Trigger, id uint64, at time.Time,
	preHealth history.Health, pre, post *traffic.Matrix,
	pairs []core.PairDelta, dep *core.Deployment, opErr error) (history.Record, bool) {
	if d.cfg.History == nil {
		return history.Record{}, false
	}
	preHose := hoseAgg(pre)
	postHose := preHose
	if post != pre {
		postHose = hoseAgg(post)
	}
	rec := history.Record{
		ReconfigID: id,
		Trigger:    trig,
		At:         at,
		Duration:   d.now().Sub(at),
		PreHealth:  preHealth,
		PostHealth: d.healthBrief(),
		PreHose:    preHose,
		PostHose:   postHose,
		Pairs:      pairs,
	}
	rec.Ducts = dep.DuctDeltas(rec.Pairs)
	if opErr != nil {
		rec.Err = opErr.Error()
	}
	return rec, true
}

// appendHistory appends rec with spans, its operation's trace as the
// flight recorder holds it.
func (d *Daemon) appendHistory(rec history.Record, spans []trace.Event) {
	rec.Spans = spans
	d.cfg.History.Append(rec)
}

// topoSnapshot is the topology API's view of the region: the committed
// deployment, allocation, demand and envelope, nil before the first
// commit. The first read after a change builds it, flattening and sorting
// the live demand once, and every read until the next change shares it.
func (d *Daemon) topoSnapshot() *topoapi.Snapshot {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.read != nil || !d.haveLKG {
		return d.read
	}
	d.read = &topoapi.Snapshot{Dep: d.fab.Deployment(), Alloc: d.lkg}
	if d.lastMatrix != nil {
		d.read.Demand = topoapi.SortedDemand(d.lastMatrix.Demand)
	}
	if d.robust != nil {
		if res := d.robust.Tally().Committed; res != nil {
			d.read.Robust = res.Envelope
		}
	}
	return d.read
}
