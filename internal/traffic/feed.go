package traffic

import (
	"fmt"
	"math/rand"

	"iris/internal/trace"
)

// Source yields successive demand matrices — the traffic feed a control
// loop converges to. Implementations must hand ownership of each returned
// matrix to the caller.
type Source interface {
	// Next returns the next demand matrix, or ok=false when the feed is
	// exhausted (a finite replay reached its end). Exhaustion is a stable
	// state: once Next has returned ok=false it must keep returning
	// ok=false on every later call, with no side effects — callers such
	// as the daemon's coalescing Step loop probe an exhausted source
	// repeatedly and rely on the repeat calls being idempotent.
	Next() (m *Matrix, ok bool)
}

// Evolver is an endless feed that yields a base matrix and then evolves it
// with the §6.3 change process: each Next is one interval of the paper's
// bounded-drift or pair-swap demand dynamics.
type Evolver struct {
	rng     *rand.Rand
	cp      ChangeProcess
	m       *Matrix
	started bool
}

// NewEvolver returns an evolving feed seeded for reproducibility. The base
// matrix is yielded as the first step and then stepped in place.
func NewEvolver(seed int64, base *Matrix, cp ChangeProcess) *Evolver {
	return &Evolver{rng: rand.New(rand.NewSource(seed)), cp: cp, m: base.Clone()}
}

// Next implements Source; it never exhausts.
func (e *Evolver) Next() (*Matrix, bool) {
	if !e.started {
		e.started = true
		return e.m.Clone(), true
	}
	e.cp.Step(e.rng, e.m)
	return e.m.Clone(), true
}

// Limit caps a feed at n matrices; it exhausts when either the underlying
// source does or n matrices have been yielded. Non-positive n yields an
// immediately exhausted feed.
func Limit(s Source, n int) Source {
	return &limited{s: s, left: n}
}

type limited struct {
	s    Source
	left int
}

func (l *limited) Next() (*Matrix, bool) {
	if l.left <= 0 {
		return nil, false
	}
	l.left--
	return l.s.Next()
}

// Traced wraps a feed so every shift it yields is journaled as an
// instant "shift" event in the flight recorder, carrying the step index
// and the matrix's total demand — the breadcrumb that lets an operator
// line a reconfiguration trace up with the traffic step that caused it.
// A nil tracer returns s unchanged.
func Traced(s Source, t *trace.Tracer) Source {
	if t == nil {
		return s
	}
	return &traced{s: s, t: t}
}

type traced struct {
	s         Source
	t         *trace.Tracer
	step      int
	exhausted bool
}

func (tr *traced) Next() (*Matrix, bool) {
	m, ok := tr.s.Next()
	if !ok {
		// A polling loop keeps calling Next after exhaustion (the Source
		// contract makes that idempotent); journal the transition once
		// instead of flooding the flight-recorder ring with repeats.
		if !tr.exhausted {
			tr.exhausted = true
			tr.t.Emit(0, "feed-exhausted", "", fmt.Sprintf("step=%d", tr.step))
		}
		return nil, false
	}
	tr.step++
	tr.t.Emit(0, "shift", "", fmt.Sprintf("step=%d total=%.1f", tr.step, m.Total()))
	return m, ok
}
