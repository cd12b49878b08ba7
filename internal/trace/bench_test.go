package trace

import (
	"testing"
	"time"
)

// BenchmarkTraceSpanEnabled is CI's allocation guard for the tracer hot
// path: one root + one device child span per iteration must cost at most
// one heap allocation per span (the Span struct itself); recording into
// the ring is allocation-free.
func BenchmarkTraceSpanEnabled(b *testing.B) {
	tr := New(1024)
	work := func() {
		sp := tr.Start(7, "reconfig")
		c := sp.Child("drain")
		c.SetDevice("xcvr-dc-0")
		c.Finish()
		sp.Finish()
	}
	if allocs := testing.AllocsPerRun(1000, work); allocs > 2 {
		b.Fatalf("enabled hot path allocates %.1f per 2 spans, want ≤ 2 (1 per span)", allocs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		work()
	}
}

// BenchmarkTraceSpanDisabled asserts the nil (disabled) tracer's span
// lifecycle is completely allocation-free, so instrumentation can stay
// wired unconditionally.
func BenchmarkTraceSpanDisabled(b *testing.B) {
	var tr *Tracer
	t0 := time.Now()
	work := func() {
		sp := tr.Start(7, "reconfig")
		c := sp.Child("drain")
		c.SetDevice("xcvr-dc-0")
		c.Finish()
		sp.Finish()
		sp = tr.StartAt(8, "reconfig", t0)
		sp.Child("core.delta").FinishAs(t0, time.Millisecond)
		sp.Finish()
	}
	if allocs := testing.AllocsPerRun(1000, work); allocs != 0 {
		b.Fatalf("disabled tracer allocates %.1f per span pair, want 0", allocs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		work()
	}
}

// BenchmarkTraceEmit measures the instant-event path used for breaker
// transitions.
func BenchmarkTraceEmit(b *testing.B) {
	tr := New(1024)
	if allocs := testing.AllocsPerRun(1000, func() {
		tr.Emit(7, "breaker", "oss-hut-1", "open")
	}); allocs != 0 {
		b.Fatalf("Emit allocates %.1f, want 0", allocs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Emit(7, "breaker", "oss-hut-1", "open")
	}
}
