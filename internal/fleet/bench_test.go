package fleet_test

import (
	"net/http"
	"testing"
	"time"

	"iris/internal/daemon"
	"iris/internal/fleet"
)

// benchFleet builds an n-region fleet with an endless feed for steady-
// state benchmarking.
func benchFleet(b *testing.B, n int) *fleet.Fleet {
	b.Helper()
	cfg := fleet.DefaultConfig()
	cfg.Regions = n
	cfg.Workers = 8
	rc := daemon.DefaultRegionConfig()
	rc.OSSDelay = 0
	rc.TraceEvents = 256
	rc.ProbeInterval = time.Nanosecond // probe every round
	cfg.Region = rc
	f, err := fleet.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(f.Close)
	return f
}

// BenchmarkFleetRound16 measures one full scheduler round over 16
// regions: dispatch, 16 concurrent probe+step convergences under the
// worker pool, demand publication, drain.
func BenchmarkFleetRound16(b *testing.B) {
	f := benchFleet(b, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Round()
		f.Quiesce()
	}
}

// BenchmarkFleetMetricsMerge16 measures the aggregated /metrics render:
// the fleet registry plus 16 region registries merged region-labelled
// into one exposition. It fails itself above 30 allocations per scrape
// (25 today, one of them each region's label pair; 30 840 when every
// sample line was formatted with fmt and every child's labels quoted and
// sorted per scrape).
func BenchmarkFleetMetricsMerge16(b *testing.B) {
	f := benchFleet(b, 16)
	f.Round()
	f.Quiesce()
	h := f.Handler()
	scrape := func() {
		req, err := http.NewRequest(http.MethodGet, "/metrics", nil)
		if err != nil {
			b.Fatal(err)
		}
		rec := &countingWriter{}
		h.ServeHTTP(rec, req)
		if rec.n == 0 {
			b.Fatal("empty merged exposition")
		}
	}
	scrape()
	if allocs := testing.AllocsPerRun(20, scrape); allocs > 30 {
		b.Fatalf("a scrape allocates %.0f times, want at most 30", allocs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scrape()
	}
}

// countingWriter is a byte-counting http.ResponseWriter, so the merge
// benchmark measures rendering without recorder buffering.
type countingWriter struct {
	n int
	h http.Header
}

func (w *countingWriter) Header() http.Header {
	if w.h == nil {
		w.h = make(http.Header)
	}
	return w.h
}
func (w *countingWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }
func (w *countingWriter) WriteHeader(int)             {}

// BenchmarkFleetStatus100 measures the /status snapshot over a 100-
// region fleet — the fleet-wide aggregation hot path.
func BenchmarkFleetStatus100(b *testing.B) {
	if testing.Short() {
		b.Skip("100-region bench skipped in -short mode")
	}
	f := benchFleet(b, 100)
	f.Round()
	f.Quiesce()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := f.Status()
		if st.Regions != 100 {
			b.Fatal("bad status")
		}
	}
}
