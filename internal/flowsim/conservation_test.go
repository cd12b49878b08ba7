package flowsim

import (
	"math/rand"
	"testing"

	"iris/internal/traffic"
)

// TestThroughputNeverExceedsCapacity: in any window, the bytes delivered
// by a pipe cannot exceed its capacity × time (with dips, the dipped
// capacity × time). We check the aggregate over the whole run.
func TestThroughputNeverExceedsCapacity(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 10; trial++ {
		capGbps := 1 + rng.Float64()*9
		util := 0.1 + rng.Float64()*0.8
		duration := 5 + rng.Float64()*10
		cfg := config{
			Seed: int64(trial), DurationS: duration, Dist: traffic.FBWeb(),
			Pipes: []Pipe{{CapacityGbps: capGbps, UtilFrac: util}},
		}
		res, err := run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var served float64
		for _, f := range res.Flows {
			served += f.SizeBytes
		}
		budget := capGbps * 1e9 / 8 * duration
		if served > budget {
			t.Fatalf("trial %d: served %.0f bytes > capacity budget %.0f", trial, served, budget)
		}
	}
}

// TestOfferedLoadIsMet: at moderate utilization the simulator should
// complete nearly all offered volume (the pipe is stable), so served bytes
// approach util × capacity × time.
func TestOfferedLoadIsMet(t *testing.T) {
	const (
		capGbps  = 5.0
		util     = 0.5
		duration = 30.0
	)
	cfg := config{
		Seed: 3, DurationS: duration, Dist: traffic.FBWeb(),
		Pipes: []Pipe{{CapacityGbps: capGbps, UtilFrac: util}},
	}
	res, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var served float64
	for _, f := range res.Flows {
		served += f.SizeBytes
	}
	offered := util * capGbps * 1e9 / 8 * duration
	ratio := served / offered
	if ratio < 0.9 || ratio > 1.1 {
		t.Errorf("served/offered = %.3f, want ≈1 (stable M/G/1-PS)", ratio)
	}
	if res.Incomplete > len(res.Flows)/10 {
		t.Errorf("%d incomplete flows vs %d complete; pipe should be stable",
			res.Incomplete, len(res.Flows))
	}
}

// TestFCTsConsistentUnderDipsAcrossSeeds: with identical arrivals, adding
// dips can only delay each flow, never speed it up. Because the config
// seed fully determines arrivals, we can compare flow-by-flow.
func TestFCTsConsistentUnderDipsAcrossSeeds(t *testing.T) {
	base := config{
		Seed: 5, DurationS: 15, Dist: traffic.WebSearch(),
		Pipes: []Pipe{{CapacityGbps: 2, UtilFrac: 0.5}},
	}
	clean, err := run(base)
	if err != nil {
		t.Fatal(err)
	}
	dipped := base
	dipped.Dips = map[int][]Dip{0: {
		{TimeS: 3, DurationS: 0.5, FracLost: 0.8},
		{TimeS: 9, DurationS: 0.5, FracLost: 0.8},
	}}
	hit, err := run(dipped)
	if err != nil {
		t.Fatal(err)
	}
	// Index clean flows by (arrival, size) — unique with a continuous RNG.
	type key struct{ a, s float64 }
	cleanFCT := make(map[key]float64, len(clean.Flows))
	for _, f := range clean.Flows {
		cleanFCT[key{f.ArriveS, f.SizeBytes}] = f.FCTSec
	}
	matched := 0
	for _, f := range hit.Flows {
		if c, ok := cleanFCT[key{f.ArriveS, f.SizeBytes}]; ok {
			matched++
			if f.FCTSec < c-1e-9 {
				t.Fatalf("flow at %v finished faster with dips: %v < %v", f.ArriveS, f.FCTSec, c)
			}
		}
	}
	if matched < len(hit.Flows)*9/10 {
		t.Fatalf("only matched %d/%d flows", matched, len(hit.Flows))
	}
}
