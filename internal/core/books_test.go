package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"iris/internal/hose"
	"iris/internal/traffic"
)

// seededMatrix draws a hose-feasible integer matrix over the deployment's
// DCs.
func seededMatrix(dep *Deployment, rng *rand.Rand) *traffic.Matrix {
	dcs := dep.Region.Map.DCs()
	m := traffic.NewMatrix(dcs)
	for _, p := range m.Pairs() {
		m.Set(p, float64(rng.Intn(60)))
	}
	m.ClampToHose(dep.Region.HoseCaps())
	for _, p := range m.Pairs() {
		m.Set(p, float64(int(m.Get(p))))
	}
	return m
}

// TestFullBooksEqualPairwiseDeltas is the one-primitive property: the
// books of a from-scratch allocation are the books reached by applying
// the matrix one pair at a time, in pair order, from the empty matrix —
// hose aggregates included, to the last bit.
func TestFullBooksEqualPairwiseDeltas(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		dep := genDeployment(t, seed, 8)
		m := seededMatrix(dep, rand.New(rand.NewSource(seed*31)))
		full, err := dep.AllocateState(m)
		if err != nil {
			t.Fatal(err)
		}
		st, err := dep.AllocateState(traffic.NewMatrix(m.DCs))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range m.Pairs() {
			delta := traffic.Delta{Changes: map[hose.Pair]float64{p: m.Get(p)}}
			if _, stats, err := dep.AllocateDelta(st, delta); err != nil {
				t.Fatalf("seed %d pair %v: %v", seed, p, err)
			} else if !stats.Incremental {
				t.Fatalf("seed %d pair %v: one-pair delta fell back", seed, p)
			}
		}
		if err := booksMatch(st, full); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !reflect.DeepEqual(st.demand, full.demand) {
			t.Fatalf("seed %d: demand books differ", seed)
		}
		for dc, want := range full.perDC {
			if got := st.perDC[dc]; got != want {
				t.Fatalf("seed %d: perDC[%d] = %v pairwise, %v from scratch", seed, dc, got, want)
			}
		}
	}
}

// TestOccupancyEqualsLiveBooks drives a 200-step seeded schedule of
// deltas, rejections, fallbacks and rollbacks and checks after every step
// that Occupancy of the state's allocation is what the state has on its
// own duct books.
func TestOccupancyEqualsLiveBooks(t *testing.T) {
	dep := genDeployment(t, 2, 8)
	rng := rand.New(rand.NewSource(77))
	m := seededMatrix(dep, rng)
	pairs := m.Pairs()
	st, err := dep.AllocateState(m)
	if err != nil {
		t.Fatal(err)
	}
	check := func(step int, what string) {
		t.Helper()
		fibers, residual := Occupancy(dep, st.Snapshot())
		if err := intMapZeroEqual(st.fibersByDuct, fibers); err != nil {
			t.Fatalf("step %d after %s: fibers: %v", step, what, err)
		}
		if err := intMapZeroEqual(st.residualByDuct, residual); err != nil {
			t.Fatalf("step %d after %s: residual: %v", step, what, err)
		}
	}
	check(-1, "AllocateState")
	applied, fallbacks, rejected, rolledBack := 0, 0, 0, 0
	for step := 0; step < 200; step++ {
		delta := traffic.Delta{Changes: map[hose.Pair]float64{}}
		switch {
		case step%10 == 9: // region-wide: the fallback fork
			for _, p := range pairs {
				if rng.Intn(4) > 0 {
					delta.Changes[p] = float64(rng.Intn(25))
				}
			}
		case step%7 == 3: // aimed past the hose: the rejection path
			delta.Changes[pairs[rng.Intn(len(pairs))]] = float64(rng.Intn(400))
		default:
			for n := 1 + rng.Intn(4); n > 0; n-- {
				delta.Changes[pairs[rng.Intn(len(pairs))]] = float64(rng.Intn(46))
			}
		}
		undo, stats, err := dep.AllocateDelta(st, delta)
		if err != nil {
			rejected++
			check(step, "rejected delta")
			continue
		}
		applied++
		if !stats.Incremental {
			fallbacks++
		}
		check(step, "AllocateDelta")
		if step%3 == 1 {
			undo.Rollback()
			rolledBack++
			check(step, "Rollback")
		}
	}
	if applied == 0 || fallbacks == 0 || rejected == 0 || rolledBack == 0 {
		t.Fatalf("schedule missed a path: %d applied, %d fallbacks, %d rejected, %d rolled back",
			applied, fallbacks, rejected, rolledBack)
	}
}

// diffOracle is Diff as it was written before it became
// Moves(DiffAlloc(old, new)): a second, independent union-sort-compare of
// the fiber maps, kept as the reference the composition is checked
// against.
func diffOracle(oldA, newA Allocation) []Move {
	pairSet := make(map[hose.Pair]bool)
	for p := range oldA.Fibers {
		pairSet[p] = true
	}
	for p := range newA.Fibers {
		pairSet[p] = true
	}
	pairs := make([]hose.Pair, 0, len(pairSet))
	for p := range pairSet {
		pairs = append(pairs, p)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].A != pairs[j].A {
			return pairs[i].A < pairs[j].A
		}
		return pairs[i].B < pairs[j].B
	})

	var moves []Move
	for _, p := range pairs {
		oldF, newF := oldA.Fibers[p], newA.Fibers[p]
		if oldF == newF {
			continue
		}
		delta := newF - oldF
		frac := 0.0
		if delta < 0 {
			denom := oldF
			if denom < 1 {
				denom = 1
			}
			frac = float64(-delta) / float64(denom)
			if frac > 1 {
				frac = 1
			}
		}
		moves = append(moves, Move{Pair: p, FibersDelta: delta, FracAffected: frac})
	}
	return moves
}

// TestMovesOfDiffAllocMatchOracle checks the one diff against the oracle
// on seeded allocation pairs, including pairs present on one side only,
// residual-only entries and explicit zeros.
func TestMovesOfDiffAllocMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	draw := func() Allocation {
		a := Allocation{Fibers: map[hose.Pair]int{}, Residual: map[hose.Pair]int{}}
		for x := 0; x < 7; x++ {
			for y := x + 1; y < 7; y++ {
				p := hose.Pair{A: x, B: y}
				switch rng.Intn(5) {
				case 0: // absent on this side
				case 1:
					a.Residual[p] = 1 + rng.Intn(39)
				case 2:
					a.Fibers[p] = 0
				default:
					a.Fibers[p] = rng.Intn(6)
					a.Residual[p] = rng.Intn(40)
				}
			}
		}
		return a
	}
	moved := 0
	for i := 0; i < 200; i++ {
		a, b := draw(), draw()
		got, want := Moves(DiffAlloc(a, b)), diffOracle(a, b)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("draw %d: Moves(DiffAlloc) = %+v, oracle %+v", i, got, want)
		}
		if !reflect.DeepEqual(Diff(a, b), want) {
			t.Fatalf("draw %d: Diff differs from the oracle", i)
		}
		moved += len(want)
	}
	if moved == 0 {
		t.Fatal("no draw moved a fiber")
	}
	if got := Moves(DiffAlloc(Allocation{}, Allocation{})); got != nil {
		t.Fatalf("empty diff = %+v, want nil", got)
	}
}

// TestRejectionsAreReproducible overloads two DCs, then two ducts, and
// requires one message over 50 runs of each path — naming the lowest
// failing DC, then the lowest failing duct — from the from-scratch
// allocation and the delta engine alike.
func TestRejectionsAreReproducible(t *testing.T) {
	dep := genDeployment(t, 1, 8)
	base := traffic.NewMatrix(dep.Region.Map.DCs())
	dcs := base.DCs // ascending
	for _, p := range base.Pairs() {
		base.Set(p, 10)
	}

	// oneMessage runs full and delta 50 times each and returns the single
	// message they all must agree on.
	oneMessage := func(name string, target *traffic.Matrix) string {
		t.Helper()
		seen := map[string]int{}
		for run := 0; run < 50; run++ {
			_, err := dep.Allocate(target)
			if err == nil {
				t.Fatalf("%s: Allocate accepted the overload", name)
			}
			seen["full: "+err.Error()]++

			st, err := dep.AllocateState(base)
			if err != nil {
				t.Fatal(err)
			}
			delta := traffic.DiffMatrices(base, target)
			if float64(delta.Len()) > fallbackFrac*float64(len(dep.Plan.Paths)) {
				t.Fatalf("%s: delta of %d pairs would fall back", name, delta.Len())
			}
			if _, _, err = dep.AllocateDelta(st, delta); err == nil {
				t.Fatalf("%s: AllocateDelta accepted the overload", name)
			}
			seen["delta: "+err.Error()]++
		}
		if len(seen) != 2 {
			t.Fatalf("%s: %d distinct rejections over 50 runs, want one per path: %v", name, len(seen), seen)
		}
		var full, delta string
		for msg := range seen {
			if rest, ok := strings.CutPrefix(msg, "full: "); ok {
				full = rest
			} else {
				delta = strings.TrimPrefix(msg, "delta: ")
			}
		}
		if full != delta {
			t.Fatalf("%s: paths disagree: full %q, delta %q", name, full, delta)
		}
		return full
	}

	// Two DCs over their hose capacity: the two highest-numbered ones get
	// 4 × 100 wavelengths on top of the base, past 8 × 40.
	hi1, hi2 := dcs[len(dcs)-2], dcs[len(dcs)-1]
	hot := base.Clone()
	for _, dc := range dcs[:4] {
		hot.Set(hose.Pair{A: dc, B: hi1}, 100)
		hot.Set(hose.Pair{A: dc, B: hi2}, 100)
	}
	if msg := oneMessage("hose", hot); !strings.HasPrefix(msg, fmt.Sprintf("core: DC %d aggregate", hi1)) {
		t.Fatalf("hose rejection %q does not name the lowest failing DC %d", msg, hi1)
	}

	// Two ducts under-provisioned: a pair riding two ducts on base
	// capacity asks for two full fibers after both lost theirs.
	var victim hose.Pair
	var ducts []int
	for _, p := range base.Pairs() {
		ducts = ducts[:0]
		info := dep.Plan.Paths[p]
		for _, duct := range info.Ducts {
			if !slices.Contains(info.CutDucts, duct) {
				ducts = append(ducts, duct)
			}
		}
		if len(ducts) >= 2 {
			victim = p
			break
		}
	}
	if len(ducts) < 2 {
		t.Skip("no pair rides two ducts on base capacity")
	}
	for _, duct := range ducts {
		dep.Plan.Ducts[duct].BasePairs = 0
	}
	wide := base.Clone()
	wide.Set(victim, 80)
	sort.Ints(ducts)
	if msg := oneMessage("duct", wide); !strings.HasPrefix(msg, fmt.Sprintf("core: duct %d needs", ducts[0])) {
		t.Fatalf("duct rejection %q does not name the lowest failing duct %d", msg, ducts[0])
	}
}
