package fabric

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"iris/internal/control"
	"iris/internal/core"
	"iris/internal/hose"
	"iris/internal/traffic"
)

// deepTwin copies every pool, book and circuit of f and its published
// intent, owners included: a fabric that shares nothing with f and equals
// it value for value.
func deepTwin(f *Fabric) *Fabric {
	g := *f
	pools := func(ps []pool) []pool {
		out := slices.Clone(ps)
		for i := range out {
			out[i].free = slices.Clone(ps[i].free)
		}
		return out
	}
	g.ductFibers, g.localPorts, g.xcvrs = pools(f.ductFibers), pools(f.localPorts), pools(f.xcvrs)
	dup := func(c *circuit) *circuit {
		d := *c
		d.fiberIdx, d.xcvrA, d.xcvrB = slices.Clone(c.fiberIdx), slices.Clone(c.xcvrA), slices.Clone(c.xcvrB)
		return &d
	}
	g.full = make(map[hose.Pair][]*circuit, len(f.full))
	for p, cs := range f.full {
		g.full[p] = slices.Clone(cs)
		for i, c := range cs {
			g.full[p][i] = dup(c)
		}
	}
	g.residual = make(map[hose.Pair]*circuit, len(f.residual))
	for p, c := range f.residual {
		g.residual[p] = dup(c)
	}
	g.ampRefs = slices.Clone(f.ampRefs)
	g.tuned = dupBooks(f.tuned, slices.Clone[[]int])
	g.live = dupBooks(f.live, slices.Clone[[]bool])
	g.cross = dupBooks(f.cross, maps.Clone[map[int]int])
	g.exp = deepExpected(f.exp)
	g.dirty = touched{slices.Clone(f.dirty.oss), slices.Clone(f.dirty.banks), slices.Clone(f.dirty.amps)}
	return &g
}

func dupBooks[T any](bs []book[T], dup func(T) T) []book[T] {
	out := slices.Clone(bs)
	for i := range out {
		out[i].v = dup(bs[i].v)
	}
	return out
}

// deepExpected copies an expectation down to its last element.
func deepExpected(e control.Expected) control.Expected {
	return control.Expected{
		Cross:   deepMap(e.Cross, maps.Clone[map[int]int]),
		Tuned:   deepMap(e.Tuned, slices.Clone[[]int]),
		Enabled: deepMap(e.Enabled, slices.Clone[[]bool]),
		Amps:    maps.Clone(e.Amps),
	}
}

func deepMap[V any](m map[string]V, dup func(V) V) map[string]V {
	if m == nil {
		return nil
	}
	out := make(map[string]V, len(m))
	for k, v := range m {
		out[k] = dup(v)
	}
	return out
}

// compileWhole is the whole-region compiler Compile replaced, kept as the
// oracle of its op order: it visits every pair the target or the fabric
// names, in pair order, tearing down before it establishes.
func compileWhole(f *Fabric, alloc core.Allocation) (control.Change, error) {
	var ch control.Change
	pairs := make(map[hose.Pair]bool)
	for p := range alloc.Fibers {
		pairs[p.Canonical()] = true
	}
	for p := range f.full {
		pairs[p] = true
	}
	for p := range f.residual {
		pairs[p] = true
	}
	ordered := make([]hose.Pair, 0, len(pairs))
	for p := range pairs {
		ordered = append(ordered, p)
	}
	hose.SortPairs(ordered)
	for _, p := range ordered {
		cur := f.full[p]
		for len(cur) > alloc.Fibers[p] {
			if err := f.teardown(&ch, cur[len(cur)-1]); err != nil {
				return ch, err
			}
			cur = cur[:len(cur)-1]
		}
		f.full[p] = cur
		if rc := f.residual[p]; rc != nil && rc.live != alloc.Residual[p] {
			if err := f.teardown(&ch, rc); err != nil {
				return ch, err
			}
			delete(f.residual, p)
		}
	}
	for _, p := range ordered {
		for len(f.full[p]) < alloc.Fibers[p] {
			c, err := f.establish(&ch, p, f.lambda)
			if err != nil {
				return ch, err
			}
			f.full[p] = append(f.full[p], c)
		}
		if want := alloc.Residual[p]; want > 0 && f.residual[p] == nil {
			c, err := f.establish(&ch, p, want)
			if err != nil {
				return ch, err
			}
			f.residual[p] = c
		}
	}
	return ch, nil
}

// shiftFeed yields n shifts around the bench region's heavy-tailed base.
// Each redraws `redraw` random pairs (all of them at 1) within ±40 % of
// the base, one in ten to zero, clamped into the hose.
func shiftFeed(rig *Rig, seed int64, redraw float64, n int) []*traffic.Matrix {
	dcs := rig.Dep.Region.Map.DCs()
	caps := rig.Dep.Region.HoseCaps()
	for dc := range caps {
		caps[dc] *= 0.7
	}
	rng := rand.New(rand.NewSource(seed))
	base := traffic.HeavyTailed(rng, dcs, caps, 1)
	cur := base.Clone()
	ms := []*traffic.Matrix{cur}
	for len(ms) < n {
		cur = cur.Clone()
		for _, p := range base.Pairs() {
			if rng.Float64() >= redraw {
				continue
			}
			d := base.Get(p) * (1 + 0.4*(2*rng.Float64()-1))
			if rng.Intn(10) == 0 {
				d = 0
			}
			cur.Set(p, d)
		}
		cur.ClampToHose(caps)
		ms = append(ms, cur)
	}
	return ms
}

// TestCompileMatchesCompileTarget is Compile's oracle. PerShift answers
// seeded sparse, dense and fallback shift sequences on the 20-DC region,
// and after every shift Compile of the outcome's pair diff, on a clone of
// the installed fabric, must give the change — op order included — that
// CompileTarget of its allocation gives on a deep twin, and that the
// whole-region compiler gives on another. The intent the clone published
// must be the one rebuilt from its circuits, the twin's, and the one
// rebuilt from the whole-region compiler's circuits; and the installed
// fabric's intent, held from before the compile, must be as it was.
func TestCompileMatchesCompileTarget(t *testing.T) {
	rig, _ := benchRegion(t, nil)
	for _, tc := range []struct {
		name   string
		redraw float64
	}{
		{"sparse", 0.01},
		{"dense", 0.3},
		{"fallback", 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fab, err := Build(rig.Dep)
			if err != nil {
				t.Fatal(err)
			}
			var pol core.PerShift
			incremental, fallbacks, quiet := 0, 0, 0
			for i, tm := range shiftFeed(rig, 7, tc.redraw, 25) {
				out, err := pol.Shift(rig.Dep, tm, i)
				if err != nil {
					t.Fatalf("shift %d: %v", i, err)
				}
				if !out.Changed {
					quiet++
				} else if i > 0 && out.Stats.Incremental {
					incremental++
				} else if i > 0 {
					fallbacks++
				}
				held := fab.Expected()
				heldCopy := deepExpected(held)
				clone, twin, whole := fab.Clone(), deepTwin(fab), deepTwin(fab)
				got, err := clone.Compile(out.Pairs)
				if err != nil {
					t.Fatalf("shift %d: Compile: %v", i, err)
				}
				want, err := twin.CompileTarget(out.Alloc)
				if err != nil {
					t.Fatalf("shift %d: CompileTarget: %v", i, err)
				}
				ref, err := compileWhole(whole, out.Alloc)
				if err != nil {
					t.Fatalf("shift %d: whole-region compile: %v", i, err)
				}
				if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(got, ref) {
					t.Fatalf("shift %d: Compile of %d pair deltas differs from CompileTarget or the whole-region compiler", i, len(out.Pairs))
				}
				exp := clone.Expected()
				if !reflect.DeepEqual(exp, rebuildExpected(clone)) {
					t.Fatalf("shift %d: the published intent differs from the one rebuilt from the circuits", i)
				}
				if !reflect.DeepEqual(exp, twin.Expected()) || !reflect.DeepEqual(exp, rebuildExpected(whole)) {
					t.Fatalf("shift %d: intent after Compile differs from CompileTarget's or the whole-region compiler's", i)
				}
				if !reflect.DeepEqual(held, heldCopy) {
					t.Fatalf("shift %d: the clone's compile wrote the installed fabric's intent", i)
				}
				if n := clone.CircuitCount(); n != twin.CircuitCount() || n != countCircuits(whole) {
					t.Fatalf("shift %d: %d circuits, twin %d, whole-region %d", i, n, twin.CircuitCount(), countCircuits(whole))
				}
				pol.Adopt()
				fab = clone
			}
			t.Logf("%s: %d incremental, %d fallback, %d unchanged", tc.name, incremental, fallbacks, quiet)
			if tc.redraw < 1 && incremental == 0 || tc.redraw == 1 && fallbacks == 0 {
				t.Errorf("%s: %d incremental and %d fallback shifts", tc.name, incremental, fallbacks)
			}
		})
	}
}

// countCircuits counts a fabric's circuits by walking them.
func countCircuits(f *Fabric) int {
	n := 0
	forEachCircuit(f, func(*circuit) { n++ })
	return n
}

// TestCompileRejectsWrongOldValues: a delta that does not start from the
// circuits the fabric holds is an error, and the fabric is left as it was.
func TestCompileRejectsWrongOldValues(t *testing.T) {
	rig, allocs := benchRegion(t, nil)
	if _, err := rig.Fab.CompileTarget(allocs[0]); err != nil {
		t.Fatal(err)
	}
	deltas := core.DiffAlloc(rig.Fab.held(), allocs[1])
	if len(deltas) < 2 {
		t.Fatalf("the two bench allocations differ in %d pairs", len(deltas))
	}
	for _, wrong := range []func(*core.PairDelta){
		func(d *core.PairDelta) { d.OldFibers++ },
		func(d *core.PairDelta) { d.OldResidual++ },
	} {
		bad := slices.Clone(deltas)
		wrong(&bad[len(bad)-1])
		clone := rig.Fab.Clone()
		twin := deepTwin(clone)
		if _, err := clone.Compile(bad); err == nil || !strings.Contains(err.Error(), "the delta starts from") {
			t.Fatalf("Compile of a delta with wrong Old values: err = %v", err)
		}
		if !reflect.DeepEqual(clone, twin) {
			t.Error("a rejected delta changed the fabric")
		}
	}
}

// TestCloneLeavesParentUntouched runs what irisd does during a commit: a
// clone compiles while another goroutine reads every entry of the
// installed fabric's intent, as a probe round compares it, and its
// circuit count. The installed fabric, its intent included, must be value
// for value what it was, also when the clone's compile fails midway. Run
// it under -race as well.
func TestCloneLeavesParentUntouched(t *testing.T) {
	rig, allocs := benchRegion(t, nil)
	for _, tc := range []struct {
		name string
		// starve grows every pair by one full fiber and empties the free
		// list of every duct but those the first pair rides, so the
		// compile establishes that pair's circuit and then runs a duct
		// out of fibers.
		starve bool
	}{
		{"dense change", false},
		{"duct out of fibers", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			parent, err := Build(rig.Dep)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := parent.CompileTarget(allocs[0]); err != nil {
				t.Fatal(err)
			}
			deltas := core.DiffAlloc(parent.held(), allocs[1])
			if tc.starve {
				held := parent.held()
				grown := held
				grown.Fibers = maps.Clone(held.Fibers)
				for p := range rig.Dep.Plan.Paths {
					grown.Fibers[p]++
				}
				deltas = core.DiffAlloc(held, grown)
				first := rig.Dep.Plan.Paths[deltas[0].Pair()].Ducts
				for duct := range parent.ductFibers {
					if !slices.Contains(first, duct) {
						p := &parent.ductFibers[duct]
						p.free = p.free[:0]
					}
				}
			}
			clone := parent.Clone()
			twin := deepTwin(parent)
			heldIntent := deepExpected(parent.Expected())

			done := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-done:
						return
					default:
					}
					readIntent(parent.Expected())
					parent.CircuitCount()
				}
			}()
			_, err = clone.Compile(deltas)
			close(done)
			wg.Wait()

			switch {
			case tc.starve && (err == nil || !strings.Contains(err.Error(), "out of fibers")):
				t.Fatalf("compile on starved ducts: err = %v, want a duct out of fibers", err)
			case tc.starve && clone.CircuitCount() <= parent.CircuitCount():
				t.Fatal("the compile failed before it established a circuit, not midway")
			case !tc.starve && err != nil:
				t.Fatal(err)
			}
			if !reflect.DeepEqual(parent.Expected(), heldIntent) {
				t.Error("the clone's compile changed the installed fabric's intent")
			}
			if !reflect.DeepEqual(parent, twin) {
				t.Error(describeDiff(parent, twin))
			}
		})
	}
}

// readIntent reads every element of an expectation.
func readIntent(e control.Expected) int {
	n := 0
	for _, cross := range e.Cross {
		for in, out := range cross {
			n += in + out
		}
	}
	for _, wl := range e.Tuned {
		for _, w := range wl {
			n += w
		}
	}
	for _, live := range e.Enabled {
		for _, on := range live {
			if on {
				n++
			}
		}
	}
	for _, on := range e.Amps {
		if on {
			n++
		}
	}
	return n
}

// TestCompileLeavesHeldIntentAlone: an Expected handed out is never
// written, also when the fabric it came from compiles again without a
// Clone in between, and each compile publishes the intent rebuilt from
// its circuits.
func TestCompileLeavesHeldIntentAlone(t *testing.T) {
	rig, allocs := benchRegion(t, nil)
	fab := rig.Fab
	if !reflect.DeepEqual(fab.Expected(), rebuildExpected(fab)) {
		t.Fatal("Build published an intent other than the empty region's")
	}
	for i := 0; i < 4; i++ {
		held := fab.Expected()
		heldCopy := deepExpected(held)
		if _, err := fab.CompileTarget(allocs[i%2]); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(held, heldCopy) {
			t.Fatalf("compile %d wrote an Expected handed out before it", i)
		}
		if reflect.DeepEqual(fab.Expected(), heldCopy) {
			t.Fatalf("compile %d changed no device's intent: the test tests nothing", i)
		}
		if !reflect.DeepEqual(fab.Expected(), rebuildExpected(fab)) {
			t.Fatalf("compile %d published an intent other than the one rebuilt from the circuits", i)
		}
	}
}

// TestClonesGrowTheirOwnSlices: two clones of one fabric that each add a
// full circuit to the same pair keep their own circuits, also when the
// parent's slice for the pair has room to grow in place.
func TestClonesGrowTheirOwnSlices(t *testing.T) {
	rig, allocs := benchRegion(t, nil)
	parent := rig.Fab
	if _, err := parent.CompileTarget(allocs[0]); err != nil {
		t.Fatal(err)
	}
	held := parent.held()
	var grow []core.PairDelta
	for p, n := range held.Fibers {
		if n == 0 {
			continue
		}
		d := core.PairDelta{A: p.A, B: p.B, OldFibers: n, NewFibers: n + 1,
			OldResidual: held.Residual[p], NewResidual: held.Residual[p]}
		if _, err := parent.Clone().Compile([]core.PairDelta{d}); err == nil {
			grow = append(grow, d)
			break
		}
	}
	if len(grow) == 0 {
		t.Fatal("no pair of the bench allocation can take one more fiber")
	}
	p, n := grow[0].Pair(), grow[0].OldFibers
	parent.full[p] = append(make([]*circuit, 0, n+4), parent.full[p]...)

	first := parent.Clone()
	if _, err := first.Compile(grow); err != nil {
		t.Fatal(err)
	}
	added := first.full[p][n]
	second := parent.Clone()
	if _, err := second.Compile(grow); err != nil {
		t.Fatal(err)
	}
	if first.full[p][n] != added || second.full[p][n] == added || len(parent.full[p]) != n {
		t.Error("two clones grew the pair's circuits in one shared array")
	}
}

// describeDiff names the parts of a fabric that differ from its twin.
func describeDiff(f, twin *Fabric) string {
	var parts []string
	for name, eq := range map[string]bool{
		"duct pools":       reflect.DeepEqual(f.ductFibers, twin.ductFibers),
		"local ports":      reflect.DeepEqual(f.localPorts, twin.localPorts),
		"transceivers":     reflect.DeepEqual(f.xcvrs, twin.xcvrs),
		"full circuits":    reflect.DeepEqual(f.full, twin.full),
		"residuals":        reflect.DeepEqual(f.residual, twin.residual),
		"amplifier refs":   reflect.DeepEqual(f.ampRefs, twin.ampRefs),
		"tuning tables":    reflect.DeepEqual(f.tuned, twin.tuned),
		"live vectors":     reflect.DeepEqual(f.live, twin.live),
		"cross-connects":   reflect.DeepEqual(f.cross, twin.cross),
		"published intent": reflect.DeepEqual(f.exp, twin.exp),
		"touched devices":  reflect.DeepEqual(f.dirty, twin.dirty),
		"circuit counter":  f.circuits == twin.circuits,
	} {
		if !eq {
			parts = append(parts, name)
		}
	}
	slices.Sort(parts)
	return fmt.Sprintf("the clone's compile changed the installed fabric: %s", strings.Join(parts, ", "))
}
