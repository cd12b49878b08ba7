package traffic

import "math/rand"

// Window is a bounded ring of the most recent demand matrices — the
// capture buffer robust planning solves its envelope over. Push stores a
// clone, so callers may keep mutating the matrices they feed in (the
// evolver steps its matrix in place).
type Window struct {
	cap int
	ms  []*Matrix
}

// NewWindow returns a window holding the last n matrices (n ≥ 1).
func NewWindow(n int) *Window {
	if n < 1 {
		n = 1
	}
	return &Window{cap: n}
}

// Push records a matrix, evicting the oldest once the window is full.
// A nil matrix is ignored.
func (w *Window) Push(m *Matrix) {
	if m == nil {
		return
	}
	w.ms = append(w.ms, m.Clone())
	if len(w.ms) > w.cap {
		copy(w.ms, w.ms[1:])
		w.ms[len(w.ms)-1] = nil
		w.ms = w.ms[:len(w.ms)-1]
	}
}

// Matrices returns the window's contents oldest-first. The slice is
// fresh but the matrices are the window's own clones; callers must not
// mutate them.
func (w *Window) Matrices() []*Matrix {
	out := make([]*Matrix, len(w.ms))
	copy(out, w.ms)
	return out
}

// Forecast rolls a private change-process branch k steps forward from
// base and returns the k successive matrices — the "where might demand
// go next" half of a robust envelope's matrix set. base is not modified;
// the branch's randomness is isolated under seed so forecasting never
// perturbs the live feed's stream.
func Forecast(seed int64, base *Matrix, cp ChangeProcess, k int) []*Matrix {
	if base == nil || k <= 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	m := base.Clone()
	out := make([]*Matrix, 0, k)
	for i := 0; i < k; i++ {
		cp.Step(rng, m)
		out = append(out, m.Clone())
	}
	return out
}
