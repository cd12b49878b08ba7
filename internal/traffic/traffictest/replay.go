// Package traffictest holds a scripted traffic feed for tests: Replay
// drives a region through a fixed sequence of matrices where a daemon in
// production reads an evolving or shaped traffic.Source.
// Only tests may import it (TestArchitecture).
package traffictest

import "iris/internal/traffic"

// Replay replays a fixed sequence of matrices: scripted traffic shifts
// for deterministic tests.
type Replay struct {
	ms []*traffic.Matrix
}

// NewReplay returns a feed that yields clones of the given matrices in
// order, then reports exhaustion.
func NewReplay(ms ...*traffic.Matrix) *Replay {
	return &Replay{ms: append([]*traffic.Matrix(nil), ms...)}
}

// Next implements traffic.Source.
func (r *Replay) Next() (*traffic.Matrix, bool) {
	if len(r.ms) == 0 {
		return nil, false
	}
	m := r.ms[0]
	r.ms = r.ms[1:]
	return m.Clone(), true
}
