// Package trace is a dependency-free span tracer with a flight-recorder
// event journal for the Iris control plane. It answers the operational
// question the paper's §5 evaluation hinges on — "which phase of
// reconfiguration #42 was slow, and on which device?" — without dragging
// in an external tracing stack.
//
// Spans are hierarchical: a reconfiguration root span has one child per
// drained phase (drain → switch → amps → retune → fill → undrain → audit,
// the §5.2 sequence), each phase has per-device children, and the planner
// and sweep produce their own trees (plan → Algorithm-1 stages, sweep →
// per-seed rows). Every finished span becomes one fixed-size Event in a
// lock-sharded ring buffer — the flight recorder — which the irisd HTTP
// surface dumps on /debug/events and /debug/trace.
//
// The hot path is allocation-light by construction: starting a span heap-
// allocates exactly one Span; finishing it copies an Event value into a
// pre-allocated ring slot under a shard mutex. A nil *Tracer is the
// disabled tracer — every method is a no-op and the whole span lifecycle
// allocates nothing, so instrumentation can stay unconditionally wired.
package trace

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Event is one completed span (or instant event) in the flight recorder.
// All fields are plain values so recording is a struct copy, never an
// allocation.
type Event struct {
	// Seq is the global record order; later events have larger Seq.
	Seq uint64 `json:"seq"`
	// TraceID groups the events of one trace — for reconfigurations it is
	// the reconfig ID the daemon threads through the control plane.
	TraceID uint64 `json:"trace_id,omitempty"`
	SpanID  uint64 `json:"span_id"`
	// ParentID is 0 for root spans.
	ParentID uint64 `json:"parent_id,omitempty"`
	Name     string `json:"name"`
	// Device attributes the span to one device agent, when applicable.
	Device string `json:"device,omitempty"`
	// Attr carries one free-form detail ("deadline_exceeded", scenario
	// coordinates, breaker state...).
	Attr     string        `json:"attr,omitempty"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration_ns"`
	Err      string        `json:"error,omitempty"`
}

// shardCount must be a power of two; records are spread round-robin by
// sequence number so concurrent writers rarely contend on one mutex.
const shardCount = 8

type shard struct {
	mu   sync.Mutex
	buf  []Event
	next int // next write index
	n    int // valid entries (≤ len(buf))
}

// Tracer records events into a fixed-capacity flight-recorder ring. The
// zero Tracer is not usable; construct with New. A nil *Tracer is the
// disabled tracer: all methods no-op.
type Tracer struct {
	seq    atomic.Uint64 // global event ordering
	ids    atomic.Uint64 // span / trace ID source
	shards [shardCount]shard
}

// New returns a tracer whose flight recorder retains the most recent
// events, with total capacity at least the given value (rounded up to a
// multiple of the shard count; non-positive selects 4096).
func New(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = 4096
	}
	per := (capacity + shardCount - 1) / shardCount
	t := &Tracer{}
	for i := range t.shards {
		t.shards[i].buf = make([]Event, per)
	}
	return t
}

// NextID hands out a fresh non-zero ID, usable as a trace ID for a new
// trace. A nil tracer returns 0.
func (t *Tracer) NextID() uint64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// record copies one event into the ring. The only mutation shared with
// readers is under the shard mutex; no allocation happens here.
func (t *Tracer) record(ev Event) {
	ev.Seq = t.seq.Add(1)
	sh := &t.shards[ev.Seq&(shardCount-1)]
	sh.mu.Lock()
	sh.buf[sh.next] = ev
	sh.next++
	if sh.next == len(sh.buf) {
		sh.next = 0
	}
	if sh.n < len(sh.buf) {
		sh.n++
	}
	sh.mu.Unlock()
}

// Emit records an instant (zero-duration) event, e.g. a breaker state
// transition. traceID 0 means the event belongs to no particular trace.
func (t *Tracer) Emit(traceID uint64, name, device, attr string) {
	if t == nil {
		return
	}
	t.record(Event{
		TraceID: traceID,
		SpanID:  t.ids.Add(1),
		Name:    name,
		Device:  device,
		Attr:    attr,
		Start:   time.Now(),
	})
}

// Span is one in-flight operation. Spans are created by Start/Child and
// recorded by Finish; a nil *Span (from a nil tracer) no-ops throughout.
type Span struct {
	t      *Tracer
	trace  uint64
	id     uint64
	parent uint64
	name   string
	device string
	attr   string
	err    string
	start  time.Time
}

// Start opens a root span in the given trace. This is the tracer's hot
// path: exactly one allocation (the Span itself).
func (t *Tracer) Start(traceID uint64, name string) *Span {
	if t == nil {
		return nil
	}
	return &Span{t: t, trace: traceID, id: t.ids.Add(1), name: name, start: time.Now()}
}

// StartAt is Start for an operation that began at at, before its trace
// ID was known (the zero at is now).
func (t *Tracer) StartAt(traceID uint64, name string, at time.Time) *Span {
	s := t.Start(traceID, name)
	if s != nil && !at.IsZero() {
		s.start = at
	}
	return s
}

// Child opens a sub-span. Like Start, it costs one allocation.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return &Span{t: s.t, trace: s.trace, id: s.t.ids.Add(1), parent: s.id, name: name, start: time.Now()}
}

// SetDevice attributes the span to a device agent.
func (s *Span) SetDevice(device string) {
	if s == nil {
		return
	}
	s.device = device
}

// SetAttr attaches one free-form detail to the span.
func (s *Span) SetAttr(attr string) {
	if s == nil {
		return
	}
	s.attr = attr
}

// Fail marks the span as failed. Formatting the error may allocate, but
// only the failure path pays for it.
func (s *Span) Fail(err error) {
	if s == nil || err == nil {
		return
	}
	s.err = err.Error()
}

// Finish records the span into the flight recorder with its measured
// duration. Allocation-free.
func (s *Span) Finish() {
	if s == nil {
		return
	}
	s.t.record(Event{
		TraceID:  s.trace,
		SpanID:   s.id,
		ParentID: s.parent,
		Name:     s.name,
		Device:   s.device,
		Attr:     s.attr,
		Start:    s.start,
		Duration: time.Since(s.start),
		Err:      s.err,
	})
}

// FinishAs records the span with an explicit start and duration — for
// aggregated timings reconstructed after the fact, like the planner's
// per-stage totals accumulated across failure scenarios.
func (s *Span) FinishAs(start time.Time, d time.Duration) {
	if s == nil {
		return
	}
	s.start = start
	s.t.record(Event{
		TraceID:  s.trace,
		SpanID:   s.id,
		ParentID: s.parent,
		Name:     s.name,
		Device:   s.device,
		Attr:     s.attr,
		Start:    start,
		Duration: d,
		Err:      s.err,
	})
}

// Filter selects events from the recorder. The zero Filter matches all.
type Filter struct {
	// TraceID, when non-zero, keeps only that trace's events.
	TraceID uint64
}

// Events snapshots the flight recorder's matching events in record order
// (ascending Seq). The result is always non-nil so it JSON-encodes as []
// rather than null.
func (t *Tracer) Events(f Filter) []Event {
	out := make([]Event, 0, 64)
	if t == nil {
		return out
	}
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		for j := 0; j < sh.n; j++ {
			ev := sh.buf[j]
			if f.TraceID != 0 && ev.TraceID != f.TraceID {
				continue
			}
			out = append(out, ev)
		}
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// ctxKey is the context key for the current span.
type ctxKey struct{}

// ContextWith returns a context carrying the span, so callees (the
// controller's phases, audits) can hang their children under it.
func ContextWith(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, s)
}

// FromContext returns the span carried by ctx, or nil.
func FromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}
