package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one call into a layer, recorded from the benchmark's side of
// the boundary. Spans of one operation (a tick, an API request, a plan, a
// round) share Op; Parent is the ID of the enclosing span, -1 for an
// operation's root.
type span struct {
	ID      int    `json:"id"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
}

func (s span) dur() int64 { return s.EndNS - s.StartNS }

// recorder keeps spans in memory until the run ends. It is driven by the
// single benchmark goroutine. A nil recorder records nothing, which is how
// the untraced run shares code with the traced one.
type recorder struct {
	t0    stamp
	spans []span
	op    int
}

func newRecorder() *recorder { return &recorder{t0: now()} }

// nextOp starts a new operation and returns its id.
func (r *recorder) nextOp() int {
	if r == nil {
		return 0
	}
	r.op++
	return r.op
}

// begin opens a span under parent (-1 for a root) and returns its index.
func (r *recorder) begin(name string, parent int) int {
	if r == nil {
		return -1
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Name: name, Parent: parent, Op: r.op, StartNS: int64(since(r.t0))})
	return id
}

// end closes a span and returns its duration.
func (r *recorder) end(id int) time.Duration {
	if r == nil {
		return 0
	}
	r.spans[id].EndNS = int64(since(r.t0))
	return time.Duration(r.spans[id].dur())
}

// selfTimes returns each span's duration minus the part of its interval
// its direct children cover (children that overlap are counted once).
func selfTimes(spans []span) []int64 {
	kids := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		cs := kids[i]
		sort.Slice(cs, func(a, b int) bool { return spans[cs[a]].StartNS < spans[cs[b]].StartNS })
		covered, reach := int64(0), s.StartNS
		for _, c := range cs {
			lo, hi := spans[c].StartNS, spans[c].EndNS
			if lo < reach {
				lo = reach
			}
			if hi > s.EndNS {
				hi = s.EndNS
			}
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = s.dur() - covered
	}
	return self
}

// layerSelfByOp sums self time per (span name, operation): the samples a
// layer's per-operation median is taken over, in nanoseconds.
func layerSelfByOp(spans []span) map[string][]float64 {
	self := selfTimes(spans)
	type key struct {
		name string
		op   int
	}
	sum := make(map[key]int64)
	var order []key
	for i, s := range spans {
		k := key{s.Name, s.Op}
		if _, ok := sum[k]; !ok {
			order = append(order, k)
		}
		sum[k] += self[i]
	}
	out := make(map[string][]float64)
	for _, k := range order {
		out[k.name] = append(out[k.name], float64(sum[k]))
	}
	return out
}

// writeTo dumps the spans as JSON lines.
func (r *recorder) writeTo(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// discardFrom drops span id and every span opened after it: the replay
// uses it to forget a tick that turned out to change nothing.
func (r *recorder) discardFrom(id int) { r.spans = r.spans[:id] }

// spanUS returns the duration in µs of every span with the given name.
func spanUS(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.dur())/1e3)
		}
	}
	return out
}
