package trace

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanTreeAssembly(t *testing.T) {
	tr := New(256)
	id := tr.NextID()
	root := tr.Start(id, "reconfig")
	for _, phase := range []string{"drain", "switch", "retune", "undrain"} {
		ph := root.Child(phase)
		for _, dev := range []string{"xcvr-0", "xcvr-1"} {
			dsp := ph.Child("rpc")
			dsp.SetDevice(dev)
			dsp.Finish()
		}
		ph.Finish()
	}
	audit := root.Child("audit")
	audit.Finish()
	root.Finish()

	events := tr.Events(Filter{TraceID: id})
	if len(events) != 14 {
		t.Fatalf("got %d events, want 14", len(events))
	}
	roots := Tree(events)
	if len(roots) != 1 {
		t.Fatalf("got %d roots, want 1", len(roots))
	}
	r := roots[0]
	if r.Name != "reconfig" || r.TraceID != id {
		t.Fatalf("root = %q trace %d, want reconfig trace %d", r.Name, r.TraceID, id)
	}
	var names []string
	for _, c := range r.Children {
		names = append(names, c.Name)
	}
	want := []string{"drain", "switch", "retune", "undrain", "audit"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Fatalf("phase order %v, want %v", names, want)
	}
	for _, c := range r.Children[:4] {
		if len(c.Children) != 2 {
			t.Fatalf("phase %s has %d device children, want 2", c.Name, len(c.Children))
		}
		for _, d := range c.Children {
			if d.Device == "" {
				t.Fatalf("device child of %s has no device attribution", c.Name)
			}
		}
	}
}

func TestEventsFilterByTrace(t *testing.T) {
	tr := New(128)
	a, b := tr.NextID(), tr.NextID()
	sa := tr.Start(a, "plan")
	sa.Finish()
	sb := tr.Start(b, "sweep")
	sb.Child("row").Finish()
	sb.Finish()

	if got := len(tr.Events(Filter{})); got != 3 {
		t.Fatalf("unfiltered events = %d, want 3", got)
	}
	evs := tr.Events(Filter{TraceID: b})
	if len(evs) != 2 {
		t.Fatalf("trace-%d events = %d, want 2", b, len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Fatalf("events out of Seq order: %v", evs)
		}
	}
	if evs[0].Name != "row" || evs[1].Name != "sweep" {
		t.Fatalf("finish order should put child before parent: %v, %v", evs[0].Name, evs[1].Name)
	}
}

// TestRingWraparoundConcurrent hammers a tiny ring from several writers;
// run with -race in CI. The recorder must retain exactly its capacity and
// never tear an event.
func TestRingWraparoundConcurrent(t *testing.T) {
	tr := New(64)
	const writers = 8
	const perWriter = 500
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				sp := tr.Start(uint64(w+1), "span")
				sp.Child("child").Finish()
				sp.Finish()
			}
		}(w)
	}
	// Concurrent readers must see consistent snapshots mid-wraparound.
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				for _, ev := range tr.Events(Filter{}) {
					if ev.Name != "span" && ev.Name != "child" {
						panic(fmt.Sprintf("torn event %+v", ev))
					}
				}
			}
		}
	}()
	wg.Wait()
	close(done)

	evs := tr.Events(Filter{})
	if len(evs) != ringCap(tr) {
		t.Fatalf("recorder holds %d events, want full capacity %d", len(evs), ringCap(tr))
	}
	seen := make(map[uint64]bool)
	for _, ev := range evs {
		if seen[ev.Seq] {
			t.Fatalf("duplicate Seq %d", ev.Seq)
		}
		seen[ev.Seq] = true
		if ev.TraceID == 0 || ev.TraceID > writers {
			t.Fatalf("event with impossible trace ID %d", ev.TraceID)
		}
	}
	// The ring keeps recent history: the very last recorded events survive.
	maxSeq := evs[len(evs)-1].Seq
	if maxSeq < uint64(writers*perWriter*2) {
		t.Fatalf("max Seq %d, want ≥ %d", maxSeq, writers*perWriter*2)
	}
}

// ringCap is the recorder's total event capacity.
func ringCap(t *Tracer) int {
	n := 0
	for i := range t.shards {
		n += len(t.shards[i].buf)
	}
	return n
}

func TestNilTracerIsDisabled(t *testing.T) {
	var tr *Tracer
	if tr.NextID() != 0 {
		t.Fatal("nil tracer leaked IDs")
	}
	sp := tr.Start(1, "x")
	if sp != nil {
		t.Fatal("nil tracer returned a live span")
	}
	// The whole lifecycle must be callable on nils.
	c := sp.Child("y")
	c.SetDevice("d")
	c.SetAttr("a")
	c.Fail(errors.New("boom"))
	c.Finish()
	sp.FinishAs(time.Now(), time.Second)
	tr.Emit(1, "e", "", "")
	if evs := tr.Events(Filter{}); len(evs) != 0 {
		t.Fatalf("nil tracer produced events: %v", evs)
	}
	if trees := tr.Traces(5); trees != nil {
		t.Fatalf("nil tracer produced traces: %v", trees)
	}
}

func TestContextRoundTrip(t *testing.T) {
	tr := New(16)
	sp := tr.Start(9, "root")
	ctx := ContextWith(context.Background(), sp)
	if got := FromContext(ctx); got != sp {
		t.Fatalf("FromContext = %v, want %v", got, sp)
	}
	if got := FromContext(context.Background()); got != nil {
		t.Fatalf("empty context yielded span %v", got)
	}
	// A nil span leaves the context untouched.
	if ctx2 := ContextWith(ctx, nil); FromContext(ctx2) != sp {
		t.Fatal("ContextWith(nil) clobbered the parent span")
	}
}

func TestFinishAsAndFail(t *testing.T) {
	tr := New(16)
	start := time.Now().Add(-3 * time.Second)
	sp := tr.Start(4, "plan")
	st := sp.Child("route")
	st.SetAttr("calls=7")
	st.Fail(errors.New("no path"))
	st.FinishAs(start, 2*time.Second)
	sp.Finish()

	evs := tr.Events(Filter{TraceID: 4})
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2", len(evs))
	}
	got := evs[0]
	if got.Name != "route" || got.Duration != 2*time.Second || !got.Start.Equal(start) {
		t.Fatalf("FinishAs recorded %+v", got)
	}
	if got.Err != "no path" || got.Attr != "calls=7" {
		t.Fatalf("attrs lost: %+v", got)
	}
}

func TestTracesLastN(t *testing.T) {
	tr := New(256)
	var ids []uint64
	for i := 0; i < 4; i++ {
		id := tr.NextID()
		ids = append(ids, id)
		sp := tr.Start(id, "reconfig")
		sp.Child("drain").Finish()
		sp.Finish()
	}
	trees := tr.Traces(2)
	if len(trees) != 2 {
		t.Fatalf("got %d trees, want 2", len(trees))
	}
	if trees[0].TraceID != ids[2] || trees[1].TraceID != ids[3] {
		t.Fatalf("kept traces %d,%d; want the most recent %d,%d",
			trees[0].TraceID, trees[1].TraceID, ids[2], ids[3])
	}
	if len(trees[0].Children) != 1 || trees[0].Children[0].Name != "drain" {
		t.Fatalf("tree lost its children: %+v", trees[0])
	}
}

func TestEmitInstantEvent(t *testing.T) {
	tr := New(16)
	tr.Emit(7, "breaker", "oss-hut-1", "open")
	evs := tr.Events(Filter{TraceID: 7})
	if len(evs) != 1 {
		t.Fatalf("got %d events, want 1", len(evs))
	}
	ev := evs[0]
	if ev.Name != "breaker" || ev.Device != "oss-hut-1" || ev.Attr != "open" || ev.Duration != 0 {
		t.Fatalf("instant event = %+v", ev)
	}
}

func TestEventJSONShape(t *testing.T) {
	tr := New(16)
	sp := tr.Start(42, "reconfig")
	sp.Finish()
	raw, err := json.Marshal(tr.Events(Filter{}))
	if err != nil {
		t.Fatal(err)
	}
	s := string(raw)
	for _, want := range []string{`"trace_id":42`, `"name":"reconfig"`, `"duration_ns"`} {
		if !strings.Contains(s, want) {
			t.Fatalf("JSON %s missing %s", s, want)
		}
	}
	// Empty snapshots must encode as [], not null: the debug endpoint's
	// contract.
	raw, err = json.Marshal(New(16).Events(Filter{}))
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != "[]" {
		t.Fatalf("empty events = %s, want []", raw)
	}
}

// TestSelfTimes: a span's self time is its duration less the union of
// its direct children's intervals clipped to its own; overlapping
// children count once, and time a child spends outside its parent not at
// all. On random trees every self time lies in [0, duration], so the
// share of a root its children cover is in [0, 1].
func TestSelfTimes(t *testing.T) {
	t0 := time.Unix(1000, 0)
	ev := func(id, parent uint64, from, to int) Event {
		return Event{SpanID: id, ParentID: parent, Start: t0.Add(time.Duration(from)), Duration: time.Duration(to - from)}
	}
	events := []Event{
		ev(1, 0, 0, 100),
		ev(2, 1, 10, 30),  // overlaps 3
		ev(3, 1, 20, 50),  // overlaps 2
		ev(4, 1, 90, 120), // runs past its parent
		ev(5, 2, 15, 25),
		ev(6, 9, 0, 7), // its parent is gone: a root
	}
	want := []time.Duration{50, 10, 30, 30, 10, 7}
	if got := SelfTimes(events); !slices.Equal(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}

	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		events = events[:0]
		for i := 1; i <= 1+rng.Intn(30); i++ {
			from := rng.Intn(1000)
			events = append(events, ev(uint64(i), uint64(rng.Intn(i)), from, from+rng.Intn(300)))
		}
		for i, self := range SelfTimes(events) {
			if self < 0 || self > events[i].Duration {
				t.Fatalf("trial %d: span %d self time %v outside [0, %v]", trial, events[i].SpanID, self, events[i].Duration)
			}
		}
	}
}
