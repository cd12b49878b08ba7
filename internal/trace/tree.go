package trace

import (
	"sort"
	"time"
)

// Node is one span in an assembled trace tree, shaped for JSON dumps on
// the irisd debug surface.
type Node struct {
	TraceID    uint64    `json:"trace_id,omitempty"`
	SpanID     uint64    `json:"span_id"`
	Name       string    `json:"name"`
	Device     string    `json:"device,omitempty"`
	Attr       string    `json:"attr,omitempty"`
	Start      time.Time `json:"start"`
	DurationMS float64   `json:"duration_ms"`
	Err        string    `json:"error,omitempty"`
	Children   []*Node   `json:"children,omitempty"`
}

// Tree assembles events into span trees. An event whose parent is absent
// from the set (never recorded, or already evicted from the ring) becomes
// a root. Siblings are ordered by start time, ties broken by record
// order, so a reconfiguration's phases read drain → … → undrain → audit.
func Tree(events []Event) []*Node {
	nodes := make(map[uint64]*Node, len(events))
	order := make([]*Node, 0, len(events))
	for _, ev := range events {
		n := &Node{
			TraceID:    ev.TraceID,
			SpanID:     ev.SpanID,
			Name:       ev.Name,
			Device:     ev.Device,
			Attr:       ev.Attr,
			Start:      ev.Start,
			DurationMS: float64(ev.Duration) / float64(time.Millisecond),
			Err:        ev.Err,
		}
		nodes[ev.SpanID] = n
		order = append(order, n)
	}
	seq := make(map[*Node]uint64, len(events))
	var roots []*Node
	for i, ev := range events {
		n := order[i]
		seq[n] = ev.Seq
		if p, ok := nodes[ev.ParentID]; ok && ev.ParentID != 0 {
			p.Children = append(p.Children, n)
		} else {
			roots = append(roots, n)
		}
	}
	byStart := func(ns []*Node) {
		sort.Slice(ns, func(i, j int) bool {
			if !ns[i].Start.Equal(ns[j].Start) {
				return ns[i].Start.Before(ns[j].Start)
			}
			return seq[ns[i]] < seq[ns[j]]
		})
	}
	byStart(roots)
	for _, n := range order {
		byStart(n.Children)
	}
	return roots
}

// SelfTimes returns each event's self time: its duration less the part
// of its interval its direct children (the events whose ParentID is its
// SpanID) cover, an instant covered by several children counted once and
// a child's time outside its parent's interval not at all. So a self time
// is never negative, and the self times of a tree sum to at most its
// root's duration.
func SelfTimes(events []Event) []time.Duration {
	byID := make(map[uint64]int, len(events))
	for i, ev := range events {
		byID[ev.SpanID] = i
	}
	kids := make([][]int, len(events))
	for i, ev := range events {
		if p, ok := byID[ev.ParentID]; ok && ev.ParentID != 0 {
			kids[p] = append(kids[p], i)
		}
	}
	self := make([]time.Duration, len(events))
	for i, ev := range events {
		cs := kids[i]
		sort.Slice(cs, func(a, b int) bool { return events[cs[a]].Start.Before(events[cs[b]].Start) })
		end := ev.Start.Add(ev.Duration)
		covered, reach := time.Duration(0), ev.Start
		for _, c := range cs {
			lo, hi := events[c].Start, events[c].Start.Add(events[c].Duration)
			if lo.Before(reach) {
				lo = reach
			}
			if hi.After(end) {
				hi = end
			}
			if hi.After(lo) {
				covered += hi.Sub(lo)
				reach = hi
			}
		}
		self[i] = ev.Duration - covered
	}
	return self
}

// Traces assembles the recorder's contents into per-trace span trees and
// returns the last n traces (by most recent activity), oldest first. Any
// root recorded with trace ID 0 (instant events outside a trace) is
// included only when it is among the n most recent roots' traces.
func (t *Tracer) Traces(n int) []*Node {
	if t == nil || n <= 0 {
		return nil
	}
	events := t.Events(Filter{})
	if len(events) == 0 {
		return nil
	}
	// Latest activity per trace, in Seq terms.
	last := make(map[uint64]uint64)
	for _, ev := range events {
		if ev.Seq > last[ev.TraceID] {
			last[ev.TraceID] = ev.Seq
		}
	}
	type tr struct {
		id   uint64
		last uint64
	}
	all := make([]tr, 0, len(last))
	for id, seq := range last {
		all = append(all, tr{id, seq})
	}
	// Oldest first; keep the n most recent.
	sort.Slice(all, func(i, j int) bool { return all[i].last < all[j].last })
	if len(all) > n {
		all = all[len(all)-n:]
	}
	keep := make(map[uint64]bool, len(all))
	for _, e := range all {
		keep[e.id] = true
	}
	kept := events[:0]
	for _, ev := range events {
		if keep[ev.TraceID] {
			kept = append(kept, ev)
		}
	}
	return Tree(kept)
}
