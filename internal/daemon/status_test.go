package daemon

import (
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"sync"
	"testing"

	"iris/internal/core"
	"iris/internal/fabric"
	"iris/internal/hose"
	"iris/internal/traffic"
)

// rebuiltRows lists an allocation the way /status did when it rebuilt
// its rows on every request: each pair of either map once, kept if it
// has a circuit or a residual, sorted with sort.Slice.
func rebuiltRows(alloc core.Allocation) []PairAllocation {
	var rows []PairAllocation
	seen := make(map[[2]int]bool)
	add := func(a, b int) {
		k := [2]int{a, b}
		if seen[k] {
			return
		}
		seen[k] = true
		p := hose.Pair{A: a, B: b}
		f, r := alloc.Fibers[p], alloc.Residual[p]
		if f > 0 || r > 0 {
			rows = append(rows, PairAllocation{A: a, B: b, Fibers: f, Residual: r})
		}
	}
	for p := range alloc.Fibers {
		add(p.A, p.B)
	}
	for p := range alloc.Residual {
		add(p.A, p.B)
	}
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		return hose.Pair{A: a.A, B: a.B}.Less(hose.Pair{A: b.A, B: b.B})
	})
	return rows
}

// checkStatusRows holds Status's rows to the committed state: the
// allocation rows to rebuiltRows of CommittedAlloc, shared by two reads
// between commits, and the device rows to the sorted breaker names.
func checkStatusRows(t *testing.T, d *Daemon, what string) {
	t.Helper()
	st, again := d.Status(), d.Status()
	alloc, ok := d.CommittedAlloc()
	if !ok {
		t.Fatalf("%s: no committed allocation", what)
	}
	want := rebuiltRows(alloc)
	if len(want) == 0 {
		t.Fatalf("%s: the committed allocation lists no rows; the check is vacuous", what)
	}
	if !slices.Equal(st.Allocation, want) {
		t.Fatalf("%s: /status lists %d allocation rows, the committed allocation %d:\n got %v\nwant %v",
			what, len(st.Allocation), len(want), st.Allocation, want)
	}
	if &again.Allocation[0] != &st.Allocation[0] {
		t.Fatalf("%s: two reads between commits built the allocation rows twice", what)
	}
	d.hmu.Lock()
	names := make([]string, 0, len(d.health))
	for name := range d.health {
		names = append(names, name)
	}
	d.hmu.Unlock()
	sort.Strings(names)
	got := make([]string, len(st.Devices))
	for i, ds := range st.Devices {
		got[i] = ds.Name
	}
	if !slices.Equal(got, names) {
		t.Fatalf("%s: /status lists devices %v, want the sorted breaker names %v", what, got, names)
	}
}

// TestStatusRowsFollowCommits steps a region under a sparse feed, a
// dense feed and forced repair passes, and after every step holds
// /status's rows to the state just committed. The rows are built once
// per commit; a commit that forgot to drop them would be listed from the
// allocation before.
func TestStatusRowsFollowCommits(t *testing.T) {
	for _, c := range []struct {
		name string
		feed func(*fabric.Rig) traffic.Source
	}{
		{"sparse", func(rig *fabric.Rig) traffic.Source { return newSparseRedrawFeed(rig, 3) }},
		{"dense", func(rig *fabric.Rig) traffic.Source { return newRedrawFeed(rig, 3) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			rig := seededRig(t, 8, nil)
			d, err := New(Config{Fab: rig.Fab, Controller: rig.Testbed.Controller, Feed: c.feed(rig)})
			if err != nil {
				t.Fatal(err)
			}
			commits := 0
			for step := 0; step < 24; step++ {
				what := "step"
				if step%6 == 5 { // a repair pass: it settles no new allocation
					what = "repair"
					d.mu.Lock()
					d.needRepair = true
					d.mu.Unlock()
				}
				before := d.Status().LastReconfigID
				d.Step()
				st := d.Status()
				if st.LastError != "" || !st.Converged {
					t.Fatalf("%s %d: %+v", what, step, st)
				}
				if st.LastReconfigID != before {
					commits++
				}
				checkStatusRows(t, d, what)
			}
			if commits < 12 {
				t.Fatalf("only %d of 24 steps committed a change", commits)
			}
		})
	}
}

// TestStatusReadsBesideCommits reads /status from two goroutines while the
// region commits sparse shifts and repair passes. Every read lists its
// allocation rows in strict pair order, each with a circuit or a residual,
// and the rows a read was handed never change after it: a commit drops
// the shared rows and builds new ones, it never writes the old. Meant for
// -race -count.
func TestStatusReadsBesideCommits(t *testing.T) {
	rig := seededRig(t, 6, nil)
	d, err := New(Config{Fab: rig.Fab, Controller: rig.Testbed.Controller, Feed: newSparseRedrawFeed(rig, 5)})
	if err != nil {
		t.Fatal(err)
	}
	h := d.Handler()
	type seen struct{ shared, copied []PairAllocation }
	stop := make(chan struct{})
	reads := make([][]seen, 2)
	var wg sync.WaitGroup
	for g := range reads {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				w := httptest.NewRecorder()
				h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/status", nil))
				if w.Code != http.StatusOK {
					t.Errorf("GET /status = %d: %s", w.Code, w.Body)
					return
				}
				rows := d.Status().Allocation
				for i, r := range rows {
					if r.Fibers <= 0 && r.Residual <= 0 {
						t.Errorf("row %+v lists no circuit and no residual", r)
						return
					}
					if i > 0 && (hose.Pair{A: rows[i-1].A, B: rows[i-1].B}).Compare(hose.Pair{A: r.A, B: r.B}) >= 0 {
						t.Errorf("rows %+v and %+v are out of pair order", rows[i-1], r)
						return
					}
				}
				if len(reads[g]) < 200 {
					reads[g] = append(reads[g], seen{rows, slices.Clone(rows)})
				}
			}
		}()
	}
	for step := 0; step < 30; step++ {
		if step%5 == 4 {
			d.mu.Lock()
			d.needRepair = true
			d.mu.Unlock()
		}
		d.Step()
		if st := d.Status(); st.LastError != "" || !st.Converged {
			close(stop)
			wg.Wait()
			t.Fatalf("step %d: %+v", step, st)
		}
	}
	close(stop)
	wg.Wait()
	n := 0
	for _, rs := range reads {
		for _, r := range rs {
			if !slices.Equal(r.shared, r.copied) {
				t.Fatalf("rows handed to a read changed after it: %v, then %v", r.copied, r.shared)
			}
			n++
		}
	}
	if n == 0 {
		t.Fatal("no /status read ran beside the commits")
	}
}

// BenchmarkStatus is one /status read of the bench region (seed 1, 20
// DCs, 52 devices, its allocation rows built by an earlier read), the
// read api-mix and tick-read send. It fails itself above 13 allocations
// per request (11 today, 14 when the body went through json.Marshal).
func BenchmarkStatus(b *testing.B) {
	rig := seededRig(b, 20, nil)
	d, err := New(Config{Fab: rig.Fab, Controller: rig.Testbed.Controller, Feed: newSparseRedrawFeed(rig, 2)})
	if err != nil {
		b.Fatal(err)
	}
	d.ProbeOnce()
	d.Step()
	h := d.Handler()
	req := httptest.NewRequest(http.MethodGet, "/status", nil)
	read := func() {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			b.Fatalf("status %d", w.Code)
		}
	}
	read()
	if allocs := testing.AllocsPerRun(20, read); allocs > 13 {
		b.Fatalf("a /status read allocates %.0f times, want at most 13", allocs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		read()
	}
}
