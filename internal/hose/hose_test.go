package hose

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"iris/internal/graph"
)

func TestSinglePair(t *testing.T) {
	caps := map[int]float64{1: 5, 2: 3}
	if got := WorstCaseLoad(caps, []Pair{{1, 2}}); got != 3 {
		t.Errorf("WorstCaseLoad = %v, want min(5,3)=3", got)
	}
}

// naiveLoad is the per-pair sum Σ min(C_A, C_B), the over-provisioned
// bound a naive planner would use (§4.1): an upper bound on the hose load.
func naiveLoad(caps map[int]float64, pairs []Pair) float64 {
	seen := make(map[Pair]bool, len(pairs))
	var total float64
	for _, p := range pairs {
		c := p.Canonical()
		if seen[c] {
			continue
		}
		seen[c] = true
		total += math.Min(caps[p.A], caps[p.B])
	}
	return total
}

func TestSharedEndpointAvoidsDoubleCounting(t *testing.T) {
	// The §4.1 example: DC A appears in pairs A-B and A-C. A naive sum
	// counts A's capacity twice; the exact load is min(C_A, C_B + C_C).
	caps := map[int]float64{0: 4, 1: 10, 2: 10}
	pairs := []Pair{{0, 1}, {0, 2}}
	if got := WorstCaseLoad(caps, pairs); got != 4 {
		t.Errorf("WorstCaseLoad = %v, want 4 (A's hose cap)", got)
	}
	if naive := naiveLoad(caps, pairs); naive != 8 {
		t.Errorf("naiveLoad = %v, want 8 (double-counted)", naive)
	}
}

func TestBottleneckOnFarSide(t *testing.T) {
	caps := map[int]float64{0: 100, 1: 2, 2: 3}
	pairs := []Pair{{0, 1}, {0, 2}}
	if got := WorstCaseLoad(caps, pairs); got != 5 {
		t.Errorf("WorstCaseLoad = %v, want 2+3=5", got)
	}
}

func TestTriangleIsFractional(t *testing.T) {
	// Pairs forming a triangle with unit capacities: the optimal fractional
	// b-matching puts 1/2 on each pair for a total of 3/2. An integral
	// matcher would only achieve 1.
	caps := map[int]float64{0: 1, 1: 1, 2: 1}
	pairs := []Pair{{0, 1}, {1, 2}, {0, 2}}
	if got := WorstCaseLoad(caps, pairs); math.Abs(got-1.5) > 1e-9 {
		t.Errorf("WorstCaseLoad = %v, want 1.5", got)
	}
}

func TestDuplicatesCoalesced(t *testing.T) {
	caps := map[int]float64{1: 5, 2: 3}
	pairs := []Pair{{1, 2}, {2, 1}, {1, 2}}
	if got := WorstCaseLoad(caps, pairs); got != 3 {
		t.Errorf("WorstCaseLoad = %v, want 3", got)
	}
	if naive := naiveLoad(caps, pairs); naive != 3 {
		t.Errorf("naiveLoad = %v, want 3", naive)
	}
}

func TestEmptyPairs(t *testing.T) {
	if got := WorstCaseLoad(map[int]float64{}, nil); got != 0 {
		t.Errorf("WorstCaseLoad(empty) = %v", got)
	}
}

func TestDegeneratePairPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	WorstCaseLoad(map[int]float64{1: 1}, []Pair{{1, 1}})
}

func TestMissingCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	WorstCaseLoad(map[int]float64{1: 1}, []Pair{{1, 2}})
}

func TestZeroCapacityDC(t *testing.T) {
	caps := map[int]float64{0: 0, 1: 7, 2: 7}
	pairs := []Pair{{0, 1}, {1, 2}}
	if got := WorstCaseLoad(caps, pairs); got != 7 {
		t.Errorf("WorstCaseLoad = %v, want 7", got)
	}
}

// bruteForce maximises Σ d_p by enumerating demands in steps of 0.5, valid
// because the fractional b-matching LP with integer capacities has a
// half-integral optimum.
func bruteForce(caps map[int]float64, pairs []Pair) float64 {
	var best float64
	var rec func(i int, demands []float64)
	feasible := func(demands []float64) bool {
		use := make(map[int]float64)
		for i, p := range pairs {
			use[p.A] += demands[i]
			use[p.B] += demands[i]
		}
		for v, u := range use {
			if u > caps[v]+1e-9 {
				return false
			}
		}
		return true
	}
	rec = func(i int, demands []float64) {
		if i == len(pairs) {
			if feasible(demands) {
				var sum float64
				for _, d := range demands {
					sum += d
				}
				if sum > best {
					best = sum
				}
			}
			return
		}
		maxD := math.Min(caps[pairs[i].A], caps[pairs[i].B])
		for d := 0.0; d <= maxD+1e-9; d += 0.5 {
			demands[i] = d
			rec(i+1, demands)
		}
		demands[i] = 0
	}
	rec(0, make([]float64, len(pairs)))
	return best
}

func TestMatchesBruteForceOnRandomInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 150; trial++ {
		nDCs := 2 + rng.Intn(4)
		caps := make(map[int]float64)
		for v := 0; v < nDCs; v++ {
			caps[v] = float64(rng.Intn(4)) // 0..3, integer => half-integral LP
		}
		var pairs []Pair
		seen := map[Pair]bool{}
		nPairs := 1 + rng.Intn(4)
		for len(pairs) < nPairs {
			a, b := rng.Intn(nDCs), rng.Intn(nDCs)
			if a == b {
				continue
			}
			p := (Pair{a, b}).Canonical()
			if seen[p] {
				break
			}
			seen[p] = true
			pairs = append(pairs, p)
		}
		got := WorstCaseLoad(caps, pairs)
		want := bruteForce(caps, pairs)
		if math.Abs(got-want) > 1e-6 {
			t.Fatalf("trial %d: got %v, brute force %v (caps=%v pairs=%v)",
				trial, got, want, caps, pairs)
		}
	}
}

func TestBoundsProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 300; trial++ {
		nDCs := 2 + rng.Intn(8)
		caps := make(map[int]float64)
		var capSum float64
		for v := 0; v < nDCs; v++ {
			caps[v] = rng.Float64() * 20
			capSum += caps[v]
		}
		var pairs []Pair
		for i := 0; i < 1+rng.Intn(10); i++ {
			a, b := rng.Intn(nDCs), rng.Intn(nDCs)
			if a != b {
				pairs = append(pairs, Pair{a, b})
			}
		}
		if len(pairs) == 0 {
			continue
		}
		got := WorstCaseLoad(caps, pairs)
		naive := naiveLoad(caps, pairs)
		if got > naive+1e-9 {
			t.Fatalf("trial %d: load %v exceeds naive bound %v", trial, got, naive)
		}
		if got > capSum/2+1e-9 {
			t.Fatalf("trial %d: load %v exceeds half total capacity %v", trial, got, capSum/2)
		}
		// Lower bound: any single pair's min-capacity is achievable.
		for _, p := range pairs {
			lower := math.Min(caps[p.A], caps[p.B])
			if got < lower-1e-9 {
				t.Fatalf("trial %d: load %v below single-pair bound %v", trial, got, lower)
			}
		}
	}
}

// refWorstCaseLoad is WorstCaseLoad as it stood before the LP moved onto a
// kept network: maps for the DCs in play, a new network per call, nodes
// numbered densely over those DCs. It stays as the oracle for the bits of
// the result, which with fractional capacities depend on the order Dinic
// meets the arcs in.
func refWorstCaseLoad(caps map[int]float64, pairs []Pair) float64 {
	if len(pairs) == 0 {
		return 0
	}
	seen := make(map[Pair]bool, len(pairs))
	var uniq []Pair
	for _, p := range pairs {
		if p.A == p.B {
			panic(fmt.Sprintf("hose: degenerate pair (%d,%d)", p.A, p.B))
		}
		c := p.Canonical()
		if !seen[c] {
			seen[c] = true
			uniq = append(uniq, c)
		}
	}
	idSet := make(map[int]bool)
	for _, p := range uniq {
		idSet[p.A] = true
		idSet[p.B] = true
	}
	ids := make([]int, 0, len(idSet))
	for id := range idSet {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	index := make(map[int]int, len(ids))
	for i, id := range ids {
		index[id] = i
	}
	n := len(ids)
	f := graph.NewFlowNetwork(2 + 2*n)
	s, t := 0, 1
	for i, id := range ids {
		c, ok := caps[id]
		if !ok {
			panic(fmt.Sprintf("hose: no capacity for DC %d", id))
		}
		if c < 0 || math.IsNaN(c) {
			panic(fmt.Sprintf("hose: invalid capacity %v for DC %d", c, id))
		}
		f.AddArc(s, 2+i, c)
		f.AddArc(2+n+i, t, c)
	}
	for _, p := range uniq {
		a, b := index[p.A], index[p.B]
		f.AddArc(2+a, 2+n+b, math.Inf(1))
		f.AddArc(2+b, 2+n+a, math.Inf(1))
	}
	return f.MaxFlow(s, t) / 2
}

// panicOf runs fn and returns what it panicked with, nil if it returned.
func panicOf(fn func()) (v any) {
	defer func() { v = recover() }()
	fn()
	return nil
}

// Both entries — the map signature and an LP held across all the trials —
// return the reference's float bit for bit: whole and fractional
// capacities, sparse DC ids, pairs in any order with duplicates and
// reversals for the map signature, and the sorted distinct pairs an
// evaluator passes for the LP.
func TestBothEntriesMatchReferenceBitForBit(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var lp LP
	for trial := 0; trial < 500; trial++ {
		nDCs := 2 + rng.Intn(9)
		ids := rng.Perm(40)[:nDCs]
		sort.Ints(ids)
		caps := make(map[int]float64, nDCs)
		dense := make([]float64, nDCs)
		for i, id := range ids {
			c := float64(rng.Intn(12))
			if trial%2 == 1 {
				c = rng.Float64() * 12 // what robust.Verify's overrides look like
			}
			caps[id], dense[i] = c, c
		}

		var pairs []Pair // by id, as given
		set := make(map[Pair]bool)
		for i := 1 + rng.Intn(3*nDCs); i > 0; i-- {
			a, b := rng.Intn(nDCs), rng.Intn(nDCs)
			if a == b {
				continue
			}
			pairs = append(pairs, Pair{A: ids[a], B: ids[b]}) // either orientation, repeats likely
			set[Pair{A: min(a, b), B: max(a, b)}] = true
		}
		want := refWorstCaseLoad(caps, pairs)
		if got := WorstCaseLoad(caps, pairs); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: map signature %v, reference %v (caps=%v pairs=%v)", trial, got, want, caps, pairs)
		}

		// The evaluator's call: positions, distinct, ascending — against
		// the reference given the same pairs in that order.
		var byPos, byID []Pair
		for p := range set {
			byPos = append(byPos, p)
		}
		SortPairs(byPos)
		for _, p := range byPos {
			byID = append(byID, Pair{A: ids[p.A], B: ids[p.B]})
		}
		want = refWorstCaseLoad(caps, byID)
		if got := lp.WorstCaseLoad(dense, byPos); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: LP %v, reference %v (caps=%v pairs=%v)", trial, got, want, dense, byPos)
		}
	}
}

// An invalid capacity panics with the same message from every entry when
// its DC is in play, and is not looked at when it is not.
func TestInvalidCapacityPanicsAlike(t *testing.T) {
	for _, bad := range []float64{-1, math.NaN()} {
		caps := map[int]float64{0: 4, 1: bad, 2: 4, 3: bad}
		dense := []float64{4, bad, 4, bad}
		pairs := []Pair{{0, 1}, {1, 2}}
		want := panicOf(func() { refWorstCaseLoad(caps, pairs) })
		if want == nil {
			t.Fatalf("reference accepted capacity %v", bad)
		}
		if got := panicOf(func() { WorstCaseLoad(caps, pairs) }); got != want {
			t.Errorf("map signature panicked with %v, reference with %v", got, want)
		}
		var lp LP
		if got := panicOf(func() { lp.WorstCaseLoad(dense, pairs) }); got != want {
			t.Errorf("LP panicked with %v, reference with %v", got, want)
		}
		// DCs 1 and 3 out of play: their capacities are never read.
		if got := lp.WorstCaseLoad(dense, []Pair{{0, 2}}); got != 4 {
			t.Errorf("LP with the invalid DCs out of play = %v, want 4", got)
		}
		if got := WorstCaseLoad(caps, []Pair{{2, 0}}); got != 4 {
			t.Errorf("map signature with the invalid DCs out of play = %v, want 4", got)
		}
	}
}

// The LP takes positions: a pair outside the capacities, reversed,
// degenerate or given twice is a caller's bug and panics.
func TestLPRejectsMalformedPairs(t *testing.T) {
	var lp LP
	for _, p := range []Pair{{0, 3}, {-1, 1}, {2, 1}, {1, 1}} {
		if panicOf(func() { lp.WorstCaseLoad([]float64{1, 1, 1}, []Pair{p}) }) == nil {
			t.Errorf("pair %v accepted", p)
		}
	}
	if panicOf(func() { lp.WorstCaseLoad([]float64{1, 1, 1}, []Pair{{0, 1}, {1, 2}, {0, 1}}) }) == nil {
		t.Error("a pair given twice accepted")
	}
}

// A warmed LP solves without allocating.
func TestLPSteadyStateZeroAlloc(t *testing.T) {
	var lp LP
	caps := []float64{3, 2.5, 4, 1, 6}
	pairs := []Pair{{0, 1}, {0, 2}, {1, 4}, {2, 3}, {3, 4}}
	lp.WorstCaseLoad(caps, pairs)
	if avg := testing.AllocsPerRun(20, func() { lp.WorstCaseLoad(caps, pairs) }); avg != 0 {
		t.Errorf("warmed LP allocated %v per solve, want 0", avg)
	}
}

// maxLevel solves the problem on lp phase by phase and returns the
// deepest level t reached: past 3 only when an augmenting path crossed a
// reverse arc.
func maxLevel(lp *LP, caps []float64, pairs []Pair) int32 {
	lp.build(caps, pairs)
	var deepest int32
	for tl := lp.levels(); tl != 0; tl = lp.levels() {
		deepest = max(deepest, tl)
		lp.blockingFlow(tl, 0)
	}
	return deepest
}

// The LP and the map signature against the reference where the bitsets
// span several words: 65–140 positions; whole, fractional and zero
// capacities; sets of a few pairs spread over every word and dense sets
// of more than 64 DCs; one LP held across all of them. The LP gets the
// distinct pairs in a random order, the map signature the same pairs
// shuffled, with repeats and reversals. Some instances must need an
// augmenting path through a reverse arc, so that t's level passes 3.
func TestLPMatchesReferenceAcrossWords(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	var lp, probe LP
	deep := 0
	for trial := 0; trial < 400; trial++ {
		n := 65 + rng.Intn(76)
		caps := make([]float64, n)
		byID := make(map[int]float64, n)
		for i := range caps {
			switch rng.Intn(4) {
			case 0:
			case 1:
				caps[i] = float64(rng.Intn(12))
			default:
				caps[i] = rng.Float64() * 12
			}
			byID[i] = caps[i]
		}
		dcs := rng.Perm(n)
		if trial%2 == 0 {
			dcs = dcs[:2+rng.Intn(12)] // sparse: a few DCs anywhere
		} else {
			dcs = dcs[:65+rng.Intn(n-64)] // dense: more than a word of DCs
		}
		var pairs []Pair
		seen := make(map[Pair]bool)
		for k := len(dcs) * (1 + rng.Intn(4)); k > 0; k-- {
			p := Pair{A: dcs[rng.Intn(len(dcs))], B: dcs[rng.Intn(len(dcs))]}.Canonical()
			if p.A != p.B && !seen[p] {
				seen[p] = true
				pairs = append(pairs, p)
			}
		}
		if len(pairs) == 0 {
			continue
		}
		want := refWorstCaseLoad(byID, pairs)
		if got := lp.WorstCaseLoad(caps, pairs); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: LP %v, reference %v (n=%d, %d pairs)", trial, got, want, n, len(pairs))
		}
		if maxLevel(&probe, caps, pairs) > 3 {
			deep++
		}

		given := append([]Pair(nil), pairs...)
		for _, p := range pairs {
			if rng.Intn(3) == 0 {
				given = append(given, Pair{A: p.B, B: p.A})
			}
		}
		rng.Shuffle(len(given), func(i, j int) { given[i], given[j] = given[j], given[i] })
		want = refWorstCaseLoad(byID, given)
		if got := WorstCaseLoad(byID, given); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: map signature %v, reference %v (n=%d, %d pairs)", trial, got, want, n, len(given))
		}
	}
	t.Logf("%d instances reached t past level 3", deep)
	if deep == 0 {
		t.Fatal("no instance needed an augmenting path through a reverse arc")
	}
}

// FuzzLPMatchesReference decodes a problem from bytes — a DC count up to
// 130, a capacity code per DC, then pairs of DC codes — and holds both
// entries to the reference bit for bit: the map signature on the pairs as
// decoded, repeats and reversals kept, and the LP on the distinct ones in
// first-seen order. A capacity code below 64 is a whole number from 0 to
// 12, any other a fraction.
func FuzzLPMatchesReference(f *testing.F) {
	f.Add([]byte{1, 1, 1, 1, 0, 1, 1, 2, 2, 0})             // the triangle
	f.Add([]byte{2, 4, 10, 10, 10, 0, 1, 0, 2, 2, 3, 1, 3}) // a shared endpoint
	f.Add([]byte{3, 200, 77, 130, 255, 9, 0, 1, 1, 2, 2, 3, 3, 4, 0, 4, 2, 0})
	wide := []byte{128}
	for i := 0; i < 130; i++ {
		wide = append(wide, byte(i*37))
	}
	for i := 0; i < 200; i++ {
		wide = append(wide, byte(i*7), byte(i*11+65))
	}
	f.Add(wide)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 2 + int(data[0])%129
		data = data[1:]
		if len(data) < n {
			return
		}
		caps := make([]float64, n)
		byID := make(map[int]float64, n)
		for i, c := range data[:n] {
			if c < 64 {
				caps[i] = float64(c % 13)
			} else {
				caps[i] = float64(c) / float64(7+c%5)
			}
			byID[i] = caps[i]
		}
		data = data[n:]
		var given, distinct []Pair
		seen := make(map[Pair]bool)
		for ; len(data) >= 2; data = data[2:] {
			p := Pair{A: int(data[0]) % n, B: int(data[1]) % n}
			if p.A == p.B {
				continue
			}
			given = append(given, p)
			if c := p.Canonical(); !seen[c] {
				seen[c] = true
				distinct = append(distinct, c)
			}
		}
		want := refWorstCaseLoad(byID, given)
		if got := WorstCaseLoad(byID, given); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("map signature %v, reference %v (caps=%v pairs=%v)", got, want, caps, given)
		}
		var lp LP
		if got := lp.WorstCaseLoad(caps, distinct); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("LP %v, reference %v (caps=%v pairs=%v)", got, want, caps, distinct)
		}
	})
}
