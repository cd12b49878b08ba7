package trace

import "testing"

// flood records enough events on an unrelated trace to overwrite every
// slot of the bounded ring.
func flood(t *Tracer, traceID uint64) {
	for i := 0; i < ringCap(t)+shardCount; i++ {
		t.Start(traceID, "filler").Finish()
	}
}

// TestTreeOrphanAfterWraparound pins how Tree handles ring wraparound:
// when a child span outlives its parent's slot in the flight recorder
// (the parent finished early and was evicted), the orphan is promoted to
// a root instead of being dropped. This is what keeps
// /debug/events?reconfig= and history-lake span trees usable for long
// reconfigurations on a small ring.
func TestTreeOrphanAfterWraparound(t *testing.T) {
	tr := New(8)
	const theTrace, otherTrace = 1, 2

	root := tr.Start(theTrace, "reconfig")
	child := root.Child("audit")
	root.Finish() // parent lands in the ring first...
	flood(tr, otherTrace)
	child.Finish() // ...and is long gone when the child records

	events := tr.Events(Filter{TraceID: theTrace})
	if len(events) != 1 {
		t.Fatalf("got %d events for the trace, want only the wrapped child", len(events))
	}
	if events[0].ParentID == 0 {
		t.Fatal("child event lost its parent reference")
	}

	tree := Tree(events)
	if len(tree) != 1 {
		t.Fatalf("Tree produced %d roots, want the orphan promoted to 1", len(tree))
	}
	if tree[0].Name != "audit" || len(tree[0].Children) != 0 {
		t.Fatalf("orphan root wrong: %+v", tree[0])
	}
}

// TestTreeSiblingOrphansKeepOrder: several children surviving their
// evicted parent all become roots, ordered by start time like ordinary
// siblings.
func TestTreeSiblingOrphansKeepOrder(t *testing.T) {
	tr := New(8)
	const theTrace, otherTrace = 3, 4

	root := tr.Start(theTrace, "reconfig")
	first := root.Child("drain")
	second := root.Child("switch")
	root.Finish()
	flood(tr, otherTrace)
	first.Finish()
	second.Finish()

	tree := Tree(tr.Events(Filter{TraceID: theTrace}))
	if len(tree) != 2 {
		t.Fatalf("got %d roots, want both orphaned siblings", len(tree))
	}
	if tree[0].Name != "drain" || tree[1].Name != "switch" {
		t.Fatalf("orphan roots out of start order: %q, %q", tree[0].Name, tree[1].Name)
	}
}

// TestTreeWrappedSubtreeSurvives: when only the top of a deep trace is
// evicted, the surviving subtree keeps its internal structure — the
// orphaned middle span becomes a root with its own child still nested.
func TestTreeWrappedSubtreeSurvives(t *testing.T) {
	tr := New(8)
	const theTrace, otherTrace = 5, 6

	root := tr.Start(theTrace, "reconfig")
	mid := root.Child("replan")
	leaf := mid.Child("audit")
	root.Finish()
	flood(tr, otherTrace)
	// Leaf first so both land post-flood; record order must not matter
	// for nesting.
	leaf.Finish()
	mid.Finish()

	tree := Tree(tr.Events(Filter{TraceID: theTrace}))
	if len(tree) != 1 {
		t.Fatalf("got %d roots, want the orphaned middle span", len(tree))
	}
	if tree[0].Name != "replan" {
		t.Fatalf("root = %q, want the surviving middle span", tree[0].Name)
	}
	if len(tree[0].Children) != 1 || tree[0].Children[0].Name != "audit" {
		t.Fatalf("surviving subtree lost its nesting: %+v", tree[0])
	}
}
