package robust

import (
	"fmt"
	"sync"
	"time"

	"iris/internal/core"
	"iris/internal/traffic"
)

// Policy is the envelope rule as a reconfiguration policy (core.Policy):
// it keeps the Window most recent shifts, absorbs a shift the committed
// envelope contains, and otherwise solves a fresh envelope over the
// window plus Forecast change-process steps. Shift and Adopt are called
// from one goroutine; Tally may be called from any.
type Policy struct {
	cfg  Config
	win  []*traffic.Matrix // clones of the recent shifts, oldest first
	last Decision

	mu       sync.Mutex // guards what Tally reads
	res      *Result
	absorbed uint64
	escapes  uint64
}

// Decision is what the policy made of its last shift.
type Decision struct {
	// Absorbed: the committed envelope contained the shift.
	Absorbed bool
	// Escapes lists the pairs that left the committed envelope, worst
	// first (nil when absorbed, and on the first solve).
	Escapes []Escape
	// Solved is the envelope solved for the shift (nil when absorbed or
	// when the solve failed).
	Solved *Result
}

// Tally is the policy's standing: its window, the committed envelope
// solve (nil before the first) and how many shifts it absorbed and how
// many escaped.
type Tally struct {
	Window            int
	Committed         *Result
	Absorbed, Escapes uint64
}

// NewPolicy returns an envelope policy with cfg's zero fields defaulted.
func NewPolicy(cfg Config) *Policy {
	def := DefaultConfig()
	if cfg.Window <= 0 {
		cfg.Window = def.Window
	}
	if cfg.Headroom == 0 {
		cfg.Headroom = def.Headroom
	}
	return &Policy{cfg: cfg}
}

// Shift absorbs tm when the committed envelope contains it and otherwise
// solves the envelope of the window (plus forecasts) on dep.
func (p *Policy) Shift(dep *core.Deployment, tm *traffic.Matrix, step int) (core.Outcome, error) {
	start := time.Now()
	p.win = append(p.win, tm.Clone())
	if len(p.win) > p.cfg.Window {
		p.win = append(p.win[:0], p.win[1:]...)
	}
	p.last = Decision{}
	p.mu.Lock()
	res := p.res
	if res != nil && res.Envelope.Contains(tm) {
		p.absorbed++
		p.mu.Unlock()
		p.last.Absorbed = true
		return core.Outcome{State: res.State, Alloc: res.Alloc}, nil
	}
	if res != nil {
		p.escapes++
	}
	p.mu.Unlock()
	if res != nil {
		p.last.Escapes = res.Envelope.Escapes(tm)
	}

	ms := append([]*traffic.Matrix(nil), p.win...)
	ms = append(ms, traffic.Forecast(p.cfg.Seed+int64(step), tm, p.cfg.CP, p.cfg.Forecast)...)
	sol, err := solve(dep, ms, p.cfg.Headroom)
	if err != nil {
		return core.Outcome{}, fmt.Errorf("robust plan: %w", err)
	}
	p.last.Solved = sol
	// An envelope solve is a full solve over the planned pairs.
	out := core.Outcome{
		State: sol.State,
		Alloc: sol.Alloc,
		Stats: &core.DeltaStats{FallbackReason: "envelope solve", PairsResolved: len(dep.Plan.Paths)},
		// The envelope solve is the shift's allocator; it snapshots its
		// own books.
		Timing: core.Timing{Start: start, Solved: time.Now()},
	}
	var adopted core.Allocation
	if res != nil {
		adopted = res.Alloc
	}
	out.Pairs = core.DiffAlloc(adopted, sol.Alloc)
	out.Changed = res == nil || len(out.Pairs) > 0
	if out.Changed {
		out.Attr = fmt.Sprintf("robust=true matrices=%d headroom=%.3f overprovision=%.2f admissible=%v",
			len(ms), sol.Headroom, sol.Overprovision, sol.AllAdmissible)
	}
	return out, nil
}

// Adopt commits the last shift's envelope, if it solved one.
func (p *Policy) Adopt() {
	if sol := p.last.Solved; sol != nil {
		p.mu.Lock()
		p.res = sol
		p.mu.Unlock()
	}
}

// Last reports what the policy made of its last shift.
func (p *Policy) Last() Decision { return p.last }

// Tally reports the policy's standing.
func (p *Policy) Tally() Tally {
	p.mu.Lock()
	defer p.mu.Unlock()
	return Tally{Window: p.cfg.Window, Committed: p.res, Absorbed: p.absorbed, Escapes: p.escapes}
}
