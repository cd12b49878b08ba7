package history

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"iris/internal/core"
	"iris/internal/telemetry"
	"iris/internal/trace"
)

func mustLake(t *testing.T, cfg Config) *Lake {
	t.Helper()
	l, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

func rec(id uint64) Record {
	return Record{
		ReconfigID: id,
		Trigger:    TriggerConverge,
		At:         time.Unix(int64(id), 0).UTC(),
		Duration:   time.Duration(id) * time.Millisecond,
		Pairs:      []core.PairDelta{{A: 2, B: 3, NewFibers: int(id)}},
		Ducts:      []core.DuctDelta{{Duct: 0, Fibers: int(id)}},
		Spans:      []trace.Event{{TraceID: id, SpanID: id, Name: "reconfigure"}},
	}
}

// all returns every record the lake holds, in Seq order.
func all(l *Lake) []Record { return l.Records(0, math.MaxUint64) }

func TestAppendGetRoundTrip(t *testing.T) {
	l := mustLake(t, Config{Capacity: 16})
	seq := l.Append(rec(42))
	if seq != 1 {
		t.Fatalf("first seq = %d, want 1", seq)
	}
	got, ok := l.Get(42)
	if !ok {
		t.Fatal("Get(42) missing")
	}
	if got.Seq != 1 || got.ReconfigID != 42 || got.Trigger != TriggerConverge || len(got.Pairs) != 1 {
		t.Fatalf("got %+v", got)
	}
	if _, ok := l.Get(43); ok {
		t.Fatal("Get(43) should miss")
	}
}

func TestNilLakeIsSafeForReads(t *testing.T) {
	var l *Lake
	if _, ok := l.Get(1); ok {
		t.Fatal("nil Get")
	}
	if all(l) != nil || l.Len() != 0 || l.Evicted() != 0 {
		t.Fatal("nil lake reads should be empty")
	}
}

func TestRecordsSeqOrdered(t *testing.T) {
	l := mustLake(t, Config{Capacity: 64})
	for id := uint64(1); id <= 20; id++ {
		l.Append(rec(id))
	}
	recs := all(l)
	if len(recs) != 20 {
		t.Fatalf("len = %d", len(recs))
	}
	for i, r := range recs {
		if r.Seq != uint64(i+1) {
			t.Fatalf("record %d has seq %d", i, r.Seq)
		}
	}
}

func TestBoundedEviction(t *testing.T) {
	l := mustLake(t, Config{Capacity: 16})
	for id := uint64(1); id <= 100; id++ {
		l.Append(rec(id))
	}
	if got := l.Len(); got != 16 {
		t.Fatalf("Len = %d, want capacity 16", got)
	}
	if l.Evicted() != 100-16 {
		t.Fatalf("Evicted = %d, want 84", l.Evicted())
	}
	// The oldest 84 are gone, the newest 16 retained; ring and index agree.
	for id := uint64(1); id <= 84; id++ {
		if _, ok := l.Get(id); ok {
			t.Fatalf("record %d should be evicted", id)
		}
	}
	for _, r := range all(l) {
		got, ok := l.Get(r.ReconfigID)
		if !ok || got.Seq != r.Seq {
			t.Fatalf("index out of sync for id %d", r.ReconfigID)
		}
	}
}

func TestSummaries(t *testing.T) {
	l := mustLake(t, Config{Capacity: 64})
	for id := uint64(1); id <= 10; id++ {
		l.Append(rec(id))
	}
	s := l.Summaries(3)
	if len(s) != 3 || s[0].Seq != 8 || s[2].Seq != 10 {
		t.Fatalf("Summaries(3) = %+v", s)
	}
	if s[0].PairsChanged != 1 || s[0].DuctsTouched != 1 || s[0].Spans != 1 {
		t.Fatalf("summary counts: %+v", s[0])
	}
	if got := l.Summaries(0); len(got) != 10 {
		t.Fatalf("Summaries(0) = %d rows", len(got))
	}
}

func TestRecordsReadsASeqRange(t *testing.T) {
	l := mustLake(t, Config{Capacity: 10})
	for id := uint64(1); id <= 25; id++ { // seqs 16..25 retained, the ring wrapped
		l.Append(rec(id))
	}
	for _, c := range []struct{ from, to, first, last uint64 }{
		{0, math.MaxUint64, 16, 25},
		{17, 20, 18, 20},
		{3, 17, 16, 17},
		{24, 99, 25, 25},
		{20, 20, 0, 0},
		{25, 30, 0, 0},
		{9, 4, 0, 0},
	} {
		got := l.Records(c.from, c.to)
		if c.first == 0 {
			if got != nil {
				t.Errorf("Records(%d, %d) = %d records, want none", c.from, c.to, len(got))
			}
			continue
		}
		if len(got) != int(c.last-c.first+1) {
			t.Fatalf("Records(%d, %d) = %d records, want seqs %d..%d", c.from, c.to, len(got), c.first, c.last)
		}
		for i, r := range got {
			if r.Seq != c.first+uint64(i) || r.ReconfigID != r.Seq {
				t.Fatalf("Records(%d, %d)[%d] = seq %d, reconfig %d; want seq %d", c.from, c.to, i, r.Seq, r.ReconfigID, c.first+uint64(i))
			}
		}
	}
}

// TestCapacityIsExact: a lake holds exactly Capacity records, and evicts
// the oldest in the lake when full.
func TestCapacityIsExact(t *testing.T) {
	l := mustLake(t, Config{Capacity: 10})
	for id := uint64(1); id <= 30; id++ {
		l.Append(rec(id))
		want := min(int(id), 10)
		if l.Len() != want {
			t.Fatalf("after %d appends Len = %d, want %d", id, l.Len(), want)
		}
		recs := all(l)
		if len(recs) != want || recs[0].Seq != id-uint64(want)+1 || recs[want-1].Seq != id {
			t.Fatalf("after %d appends the lake holds %d records, seqs %d..%d", id, len(recs), recs[0].Seq, recs[len(recs)-1].Seq)
		}
	}
	if l.Evicted() != 20 {
		t.Fatalf("Evicted = %d, want 20", l.Evicted())
	}
}

// TestListingReadsOnlyWhatItReturns: a listing of the last 16 records
// costs the same bytes on a full 512-record lake as on a 64-record one,
// and no more than twice the rows it returns. TotalAlloc counts every
// goroutine's allocations (a finalizer the GC queued, say), so each
// lake's cost is the least of a few measurements.
func TestListingReadsOnlyWhatItReturns(t *testing.T) {
	const rows, runs, trials = 16, 100, 5
	bytesPerListing := func(capacity int) uint64 {
		l := mustLake(t, Config{Capacity: capacity})
		for id := uint64(1); id <= uint64(capacity); id++ {
			l.Append(rec(id))
		}
		least := uint64(math.MaxUint64)
		for range trials {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for range runs {
				if got := l.Summaries(rows); len(got) != rows || got[rows-1].Seq != uint64(capacity) {
					t.Fatalf("Summaries(%d) on a %d-record lake = %d rows", rows, capacity, len(got))
				}
			}
			runtime.ReadMemStats(&after)
			least = min(least, (after.TotalAlloc-before.TotalAlloc)/runs)
		}
		return least
	}
	full, small := bytesPerListing(512), bytesPerListing(64)
	budget := uint64(2 * rows * unsafe.Sizeof(Summary{}))
	t.Logf("Summaries(%d): %d bytes on 512 records, %d on 64, budget %d", rows, full, small, budget)
	if full != small {
		t.Errorf("Summaries(%d) allocates %d bytes on a 512-record lake and %d on a 64-record one; want equal", rows, full, small)
	}
	if full > budget {
		t.Errorf("Summaries(%d) allocates %d bytes, budget %d", rows, full, budget)
	}
}

func TestPersistenceReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "history.jsonl")
	l1 := mustLake(t, Config{Capacity: 32, Path: path})
	for id := uint64(1); id <= 5; id++ {
		l1.Append(rec(id))
	}
	if err := l1.Close(); err != nil {
		t.Fatal(err)
	}

	l2 := mustLake(t, Config{Capacity: 32, Path: path})
	if l2.Len() != 5 {
		t.Fatalf("replayed %d records, want 5", l2.Len())
	}
	got, ok := l2.Get(3)
	if !ok || got.Seq != 3 || len(got.Spans) != 1 {
		t.Fatalf("replayed record 3 = %+v ok=%v", got, ok)
	}
	// The seq counter resumes past the replayed tail.
	if seq := l2.Append(rec(6)); seq != 6 {
		t.Fatalf("post-replay seq = %d, want 6", seq)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}

	// A restarted process numbers its reconfigurations from 1 again, so
	// its records share IDs with the replayed ones. Once the ring evicts a
	// replayed twin, the live record must still be found by its ID.
	l3 := mustLake(t, Config{Capacity: 32, Path: path})
	for id := uint64(1); id <= 32; id++ { // a full ring of live records
		l3.Append(rec(id))
	}
	everyRecordIsIndexed(t, l3)
	if got, ok := l3.Get(9); !ok || got.Seq != 6+9 {
		t.Fatalf("Get(9) = seq %d ok=%v, want the live record, seq 15", got.Seq, ok)
	}
}

// everyRecordIsIndexed checks that Get finds every record Records returns.
func everyRecordIsIndexed(t *testing.T, l *Lake) {
	t.Helper()
	for _, r := range all(l) {
		if got, ok := l.Get(r.ReconfigID); !ok || got.ReconfigID != r.ReconfigID {
			t.Fatalf("the lake holds seq %d (reconfig %d) but Get(%d) = %+v, %v",
				r.Seq, r.ReconfigID, r.ReconfigID, got, ok)
		}
	}
}

// TestReplaySortsTheJournalBySeq: concurrent appends can journal out of
// Seq order; a replayed lake holds them in ascending Seq order, and the
// records appended after it follow.
func TestReplaySortsTheJournalBySeq(t *testing.T) {
	path := filepath.Join(t.TempDir(), "history.jsonl")
	var journal []byte
	for _, seq := range []uint64{1, 3, 2, 5, 4, 6} {
		r := rec(seq)
		r.Seq = seq
		line, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		journal = append(append(journal, line...), '\n')
	}
	if err := os.WriteFile(path, journal, 0o644); err != nil {
		t.Fatal(err)
	}
	l := mustLake(t, Config{Capacity: 16, Path: path})
	l.Append(rec(7))
	recs := all(l)
	if len(recs) != 7 {
		t.Fatalf("lake holds %d records, want 7", len(recs))
	}
	for i, r := range recs {
		if r.Seq != uint64(i+1) || r.ReconfigID != r.Seq {
			t.Fatalf("record %d is seq %d (reconfig %d), want seq %d", i, r.Seq, r.ReconfigID, i+1)
		}
	}
	if got := l.Summaries(3); got[0].Seq != 5 || got[2].Seq != 7 {
		t.Fatalf("Summaries(3) = seqs %d..%d, want 5..7", got[0].Seq, got[2].Seq)
	}
	everyRecordIsIndexed(t, l)
}

func TestPersistenceReplayBoundedByCapacity(t *testing.T) {
	path := filepath.Join(t.TempDir(), "history.jsonl")
	l1 := mustLake(t, Config{Capacity: 128, Path: path})
	for id := uint64(1); id <= 50; id++ {
		l1.Append(rec(id))
	}
	l1.Close()

	l2 := mustLake(t, Config{Capacity: 8, Path: path})
	if l2.Len() != 8 {
		t.Fatalf("replayed %d, want 8 (capacity)", l2.Len())
	}
	if _, ok := l2.Get(50); !ok {
		t.Fatal("newest record should survive bounded replay")
	}
}

func TestPersistenceSurvivesCorruptTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "history.jsonl")
	l1 := mustLake(t, Config{Capacity: 32, Path: path})
	l1.Append(rec(1))
	l1.Append(rec(2))
	l1.Close()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"seq": 3, "reconfig_id":`) // torn write
	f.Close()

	l2 := mustLake(t, Config{Capacity: 32, Path: path})
	if l2.Len() != 2 {
		t.Fatalf("replayed %d, want the 2 intact records", l2.Len())
	}
	// Appending after a torn tail still works.
	l2.Append(rec(7))
	if _, ok := l2.Get(7); !ok {
		t.Fatal("append after corrupt replay failed")
	}
}

func TestMetrics(t *testing.T) {
	reg := telemetry.NewRegistry()
	l, err := New(Config{Capacity: 8, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	for id := uint64(1); id <= 12; id++ {
		l.Append(rec(id))
	}
	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"iris_history_appends_total 12\n", "iris_history_evictions_total 4\n"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("metrics lack %q:\n%s", want, b.String())
		}
	}
}

func TestConcurrentAppendAndRead(t *testing.T) {
	l := mustLake(t, Config{Capacity: 64})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				l.Append(rec(uint64(w*1000 + i + 1)))
				if i%10 == 0 {
					l.Records(uint64(i), uint64(i+20))
					l.Summaries(5)
					l.Get(uint64(w*1000 + i))
				}
			}
		}()
	}
	wg.Wait()
	if l.Len() != 64 {
		t.Fatalf("Len = %d", l.Len())
	}
	recs := all(l)
	for i := 1; i < len(recs); i++ {
		if recs[i].Seq <= recs[i-1].Seq {
			t.Fatal("Records not strictly seq-ordered")
		}
	}
}

// BenchmarkHistoryAppend pins the acceptance bound: appending to a full
// lake (steady-state, every append evicting) stays O(1) with at most one
// allocation per record.
func BenchmarkHistoryAppend(b *testing.B) {
	l, err := New(Config{Capacity: 256})
	if err != nil {
		b.Fatal(err)
	}
	r := rec(1)
	id := uint64(0)
	work := func() {
		id++
		r.ReconfigID = id
		l.Append(r)
	}
	for i := 0; i < 4096; i++ {
		work() // reach steady state: lake full, map sized
	}
	if allocs := testing.AllocsPerRun(1000, work); allocs > 1 {
		b.Fatalf("history append allocates %.1f times per record, budget 1", allocs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		work()
	}
}

// FuzzJournalReplay writes arbitrary bytes where a lake's journal goes:
// whatever a crash, a disk or an operator left there, New opens the lake,
// keeps no more than its capacity, resumes the Seq counter at or past
// every record it kept, and goes on appending — and after a restarted
// process's worth of appends (IDs from 1 again) every record the lake
// holds is still found by its ID.
func FuzzJournalReplay(f *testing.F) {
	var intact []byte
	for id := uint64(1); id <= 2; id++ {
		r := rec(id)
		r.Seq = id
		line, err := json.Marshal(r)
		if err != nil {
			f.Fatal(err)
		}
		intact = append(append(intact, line...), '\n')
	}
	f.Add(intact)
	f.Add(append(append([]byte(nil), intact...), `{"seq": 3, "reconfig_id":`...)) // torn write
	f.Add(append(append([]byte(nil), intact...), intact...))                      // the same IDs twice
	f.Add([]byte(`{"seq":18446744073709551615,"reconfig_id":1}` + "\n"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, journal []byte) {
		const capacity = 16
		path := filepath.Join(t.TempDir(), "history.jsonl")
		if err := os.WriteFile(path, journal, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := New(Config{Capacity: capacity, Path: path})
		if err != nil {
			t.Fatalf("New on a journal of %d bytes: %v", len(journal), err)
		}
		defer l.Close()
		if l.Len() > capacity {
			t.Fatalf("replay kept %d records, capacity %d", l.Len(), capacity)
		}
		resumed := l.seq
		for _, r := range all(l) {
			if r.Seq > resumed {
				t.Fatalf("replayed seq %d above the resumed counter %d", r.Seq, resumed)
			}
		}
		listing := l.Summaries(0)
		for i := 1; i < len(listing); i++ {
			if listing[i].Seq < listing[i-1].Seq {
				t.Fatalf("replayed listing is out of Seq order at row %d: %d after %d", i, listing[i].Seq, listing[i-1].Seq)
			}
		}
		for n := 1; n <= len(listing); n++ {
			if got := l.Summaries(n); !reflect.DeepEqual(got, listing[len(listing)-n:]) {
				t.Fatalf("Summaries(%d) = %+v, want the last %d rows of Summaries(0)", n, got, n)
			}
		}
		everyRecordIsIndexed(t, l)
		for id := uint64(1); id <= 2*capacity; id++ {
			if seq := l.Append(rec(id)); seq != resumed+id { // equal even if a forged seq wraps the counter
				t.Fatalf("append %d got seq %d, want %d", id, seq, resumed+id)
			}
			everyRecordIsIndexed(t, l)
		}
		if l.Len() != capacity {
			t.Fatalf("lake holds %d records after %d appends, capacity %d", l.Len(), 2*capacity, capacity)
		}
	})
}
