package flowsim

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"iris/internal/traffic"
)

// flattenDips converts an arbitrary (possibly overlapping) dip set into
// the equivalent sequence of non-overlapping dips by sweeping the dip
// boundaries: on each interval between boundaries the true capacity
// multiplier is the product of the multipliers of every dip covering it.
// Non-overlapping dips are handled trivially by any restore logic, so the
// flattened set is a brute-force piecewise-constant reference.
func flattenDips(dips []Dip) []Dip {
	var bounds []float64
	for _, d := range dips {
		if d.FracLost <= 0 || d.DurationS <= 0 {
			continue
		}
		bounds = append(bounds, d.TimeS, d.TimeS+d.DurationS)
	}
	if len(bounds) == 0 {
		return nil
	}
	sort.Float64s(bounds)
	var out []Dip
	for i := 0; i+1 < len(bounds); i++ {
		lo, hi := bounds[i], bounds[i+1]
		if hi <= lo {
			continue
		}
		mult := 1.0
		for _, d := range dips {
			if d.FracLost <= 0 || d.DurationS <= 0 {
				continue
			}
			if d.TimeS <= lo && lo < d.TimeS+d.DurationS {
				mult *= 1 - math.Min(d.FracLost, 1)
			}
		}
		if mult < 1 {
			out = append(out, Dip{TimeS: lo, DurationS: hi - lo, FracLost: 1 - mult})
		}
	}
	return out
}

// requireSameFlows asserts two runs over identical arrivals produced the
// same flows with fcts equal within a relative tolerance (the two dip
// encodings differ in float rounding, not in semantics).
func requireSameFlows(t *testing.T, got, want result) {
	t.Helper()
	if len(got.Flows) != len(want.Flows) {
		t.Fatalf("flow counts differ: %d vs reference %d", len(got.Flows), len(want.Flows))
	}
	if got.Incomplete != want.Incomplete {
		t.Fatalf("incomplete counts differ: %d vs reference %d", got.Incomplete, want.Incomplete)
	}
	for i := range got.Flows {
		g, w := got.Flows[i], want.Flows[i]
		if g.ArriveS != w.ArriveS || g.SizeBytes != w.SizeBytes {
			t.Fatalf("flow %d identity differs: %+v vs %+v", i, g, w)
		}
		tol := 1e-6 * math.Max(1, w.FCTSec)
		if math.Abs(g.FCTSec-w.FCTSec) > tol {
			t.Fatalf("flow %d (arrive %.4f, %v bytes): FCT %v vs reference %v",
				i, g.ArriveS, g.SizeBytes, g.FCTSec, w.FCTSec)
		}
	}
}

// TestOverlappingDipsRestoreCorrectCapacity is the regression test for the
// LIFO restore bug: dip A [0,5s] frac 0.5 and dip B [1,6s] frac 0.9
// overlap without nesting, so A's restore at t=5 fires first even though
// B's multiplier was pushed last. The old stack popped B's multiplier,
// leaving the pipe at half capacity during [5,6s] instead of the true 0.1.
// The piecewise-constant reference exposes the difference through the
// fcts of the backlog draining across t=5.
func TestOverlappingDipsRestoreCorrectCapacity(t *testing.T) {
	dips := []Dip{
		{TimeS: 0, DurationS: 5, FracLost: 0.5},
		{TimeS: 1, DurationS: 5, FracLost: 0.9},
	}
	cfg := config{
		Seed: 17, DurationS: 12, Dist: traffic.FBWeb(),
		Pipes: []Pipe{{CapacityGbps: 0.5, UtilFrac: 0.8}},
	}
	over := cfg
	over.Dips = map[int][]Dip{0: dips}
	got, err := run(over)
	if err != nil {
		t.Fatal(err)
	}
	ref := cfg
	ref.Dips = map[int][]Dip{0: flattenDips(dips)}
	want, err := run(ref)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Flows) == 0 {
		t.Fatal("no flows completed; test exercises nothing")
	}
	requireSameFlows(t, got, want)
}

// TestRandomDipSetsMatchPiecewiseReference fuzzes the restore logic:
// random overlapping, nested, duplicated and touching dips must all be
// equivalent to their brute-force piecewise-constant flattening.
func TestRandomDipSetsMatchPiecewiseReference(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(5)
		var dips []Dip
		for i := 0; i < n; i++ {
			dips = append(dips, Dip{
				TimeS:     rng.Float64() * 8,
				DurationS: 0.2 + rng.Float64()*4,
				FracLost:  0.1 + rng.Float64()*0.9,
			})
		}
		cfg := config{
			Seed: int64(trial), DurationS: 15, Dist: traffic.FBWeb(),
			Pipes: []Pipe{{CapacityGbps: 1, UtilFrac: 0.6}},
		}
		over := cfg
		over.Dips = map[int][]Dip{0: dips}
		got, err := run(over)
		if err != nil {
			t.Fatal(err)
		}
		ref := cfg
		ref.Dips = map[int][]Dip{0: flattenDips(dips)}
		want, err := run(ref)
		if err != nil {
			t.Fatal(err)
		}
		requireSameFlows(t, got, want)
	}
}

// TestFullOutageStallsWithoutDividingByZero: FracLost = 1 zeroes the
// pipe. Credit must stall (no completions strictly inside the outage),
// nothing may divide by zero, and flows must resume on restore — every
// arrival is accounted for as completed or incomplete, matching the
// clean run's arrival count.
func TestFullOutageStallsWithoutDividingByZero(t *testing.T) {
	const start, dur = 4.0, 2.0
	cfg := config{
		Seed: 23, DurationS: 15, Dist: traffic.FBWeb(),
		Pipes: []Pipe{{CapacityGbps: 1, UtilFrac: 0.4}},
	}
	clean, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dark := cfg
	dark.Dips = map[int][]Dip{0: {{TimeS: start, DurationS: dur, FracLost: 1}}}
	hit, err := run(dark)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range hit.Flows {
		finish := f.ArriveS + f.FCTSec
		if finish > start+1e-9 && finish < start+dur-1e-9 {
			t.Fatalf("flow completed at %v inside the [%v,%v] full outage", finish, start, start+dur)
		}
		if math.IsNaN(f.FCTSec) || math.IsInf(f.FCTSec, 0) {
			t.Fatalf("non-finite FCT %v", f.FCTSec)
		}
	}
	// Same seed, same arrival process: no flow may be lost or invented.
	if got, want := len(hit.Flows)+hit.Incomplete, len(clean.Flows)+clean.Incomplete; got != want {
		t.Fatalf("outage run accounts for %d flows, clean run %d", got, want)
	}
	// Flows must resume: something completes after the restore.
	resumed := 0
	for _, f := range hit.Flows {
		if f.ArriveS+f.FCTSec >= start+dur {
			resumed++
		}
	}
	if resumed == 0 {
		t.Fatal("no flows completed after the outage ended")
	}
}

// TestDipSpanningSimulationEnd: a dip whose restore lies beyond DurationS
// must not panic or strand the loop; flows in flight stay incomplete.
func TestDipSpanningSimulationEnd(t *testing.T) {
	cfg := config{
		Seed: 31, DurationS: 8, Dist: traffic.FBWeb(),
		Pipes: []Pipe{{CapacityGbps: 1, UtilFrac: 0.5}},
	}
	clean, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	spill := cfg
	spill.Dips = map[int][]Dip{0: {{TimeS: 6, DurationS: 100, FracLost: 1}}}
	hit, err := run(spill)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range hit.Flows {
		if f.ArriveS+f.FCTSec > 6+1e-9 {
			t.Fatalf("flow completed at %v during a full outage spanning the run's end", f.ArriveS+f.FCTSec)
		}
	}
	if got, want := len(hit.Flows)+hit.Incomplete, len(clean.Flows)+clean.Incomplete; got != want {
		t.Fatalf("spanning-dip run accounts for %d flows, clean run %d", got, want)
	}
	if hit.Incomplete == 0 {
		t.Fatal("expected flows stranded by the outage at the end of the run")
	}
}

// TestSimultaneousDipEventTies: coincident change events — two dips
// starting and ending at the same instants, and a dip starting exactly
// when another ends — must compose like their flattened equivalents, and
// ties in the event loop's select must not lose or invent flows.
func TestSimultaneousDipEventTies(t *testing.T) {
	cases := map[string][]Dip{
		"identical pair": {
			{TimeS: 2, DurationS: 1, FracLost: 0.5},
			{TimeS: 2, DurationS: 1, FracLost: 0.5},
		},
		"end meets start": {
			{TimeS: 2, DurationS: 1, FracLost: 0.6},
			{TimeS: 3, DurationS: 1, FracLost: 0.3},
		},
		"shared end": {
			{TimeS: 2, DurationS: 2, FracLost: 0.4},
			{TimeS: 3, DurationS: 1, FracLost: 0.7},
		},
	}
	for name, dips := range cases {
		cfg := config{
			Seed: 41, DurationS: 10, Dist: traffic.FBWeb(),
			Pipes: []Pipe{{CapacityGbps: 1, UtilFrac: 0.6}},
		}
		over := cfg
		over.Dips = map[int][]Dip{0: dips}
		got, err := run(over)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ref := cfg
		ref.Dips = map[int][]Dip{0: flattenDips(dips)}
		want, err := run(ref)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		requireSameFlows(t, got, want)
	}
}
