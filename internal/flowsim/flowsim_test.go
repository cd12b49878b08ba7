package flowsim

import (
	"math"
	"testing"

	"iris/internal/stats"
	"iris/internal/traffic"
)

func TestRunValidation(t *testing.T) {
	dist := traffic.WebSearch()
	good := config{Seed: 1, DurationS: 1, Dist: dist, Pipes: []Pipe{{CapacityGbps: 1, UtilFrac: 0.5}}}
	if _, err := run(good); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	for name, cfg := range map[string]config{
		"no duration": {Seed: 1, Dist: dist, Pipes: good.Pipes},
		"no pipes":    {Seed: 1, DurationS: 1, Dist: dist},
		"bad cap":     {Seed: 1, DurationS: 1, Dist: dist, Pipes: []Pipe{{CapacityGbps: 0, UtilFrac: 0.5}}},
		"util >= 1":   {Seed: 1, DurationS: 1, Dist: dist, Pipes: []Pipe{{CapacityGbps: 1, UtilFrac: 1}}},
	} {
		if _, err := run(cfg); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	cfg := config{
		Seed: 7, DurationS: 5, Dist: traffic.FBWeb(),
		Pipes: []Pipe{{CapacityGbps: 1, UtilFrac: 0.4}, {CapacityGbps: 1, UtilFrac: 0.2}},
	}
	a, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Flows) != len(b.Flows) {
		t.Fatalf("flow counts differ: %d vs %d", len(a.Flows), len(b.Flows))
	}
	for i := range a.Flows {
		if a.Flows[i] != b.Flows[i] {
			t.Fatalf("flow %d differs", i)
		}
	}
}

func TestFCTNeverBelowTransmissionTime(t *testing.T) {
	cfg := config{
		Seed: 3, DurationS: 10, Dist: traffic.WebSearch(),
		Pipes: []Pipe{{CapacityGbps: 2, UtilFrac: 0.6}},
	}
	res, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Flows) == 0 {
		t.Fatal("no flows completed")
	}
	capBytes := 2e9 / 8
	for _, f := range res.Flows {
		minFCT := f.SizeBytes / capBytes
		if f.FCTSec < minFCT-1e-12 {
			t.Fatalf("flow of %v bytes finished in %v s, below line rate %v s",
				f.SizeBytes, f.FCTSec, minFCT)
		}
	}
}

func TestSoloFlowRunsAtLineRate(t *testing.T) {
	// At very low utilization flows rarely overlap, so FCT ≈ size/capacity.
	cfg := config{
		Seed: 4, DurationS: 30, Dist: traffic.FBWeb(),
		Pipes: []Pipe{{CapacityGbps: 10, UtilFrac: 0.001}},
	}
	res, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	capBytes := 10e9 / 8
	atLine := 0
	for _, f := range res.Flows {
		if math.Abs(f.FCTSec-f.SizeBytes/capBytes) < 1e-9 {
			atLine++
		}
	}
	if len(res.Flows) == 0 || atLine < len(res.Flows)*9/10 {
		t.Errorf("%d/%d flows at line rate; expected nearly all", atLine, len(res.Flows))
	}
}

func TestUtilizationAffectsFCT(t *testing.T) {
	p99 := func(util float64) float64 {
		cfg := config{
			Seed: 5, DurationS: 20, Dist: traffic.WebSearch(),
			Pipes: []Pipe{{CapacityGbps: 5, UtilFrac: util}},
		}
		res, err := run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return stats.Percentile(res.fcts(false), 99)
	}
	low, high := p99(0.1), p99(0.7)
	if high <= low {
		t.Errorf("p99 FCT at 70%% util (%v) should exceed 10%% util (%v)", high, low)
	}
}

func TestFullOutageDelaysFlows(t *testing.T) {
	// A total 1-second outage must delay flows in flight across it.
	base := config{
		Seed: 6, DurationS: 10, Dist: traffic.FBWeb(),
		Pipes: []Pipe{{CapacityGbps: 1, UtilFrac: 0.3}},
	}
	clean, err := run(base)
	if err != nil {
		t.Fatal(err)
	}
	dipped := base
	dipped.Dips = map[int][]Dip{0: {{TimeS: 5, DurationS: 1, FracLost: 1}}}
	hit, err := run(dipped)
	if err != nil {
		t.Fatal(err)
	}
	// Same arrivals, so flow counts can differ only via end-of-run
	// truncation; fcts of flows spanning the outage grow by up to 1 s.
	p99Clean := stats.Percentile(clean.fcts(false), 99)
	p99Hit := stats.Percentile(hit.fcts(false), 99)
	if p99Hit <= p99Clean {
		t.Errorf("outage p99 %v should exceed clean p99 %v", p99Hit, p99Clean)
	}
	// The worst flow is delayed by the outage plus the time to drain the
	// backlog that accumulated during it (arrivals continue while the pipe
	// is dark). At 30% utilization the drain adds well under a second, so
	// a small multiple of the outage bounds the damage.
	maxClean := stats.Max(clean.fcts(false))
	maxHit := stats.Max(hit.fcts(false))
	if maxHit > maxClean+3 {
		t.Errorf("outage added %v s to worst FCT; expected ≤ outage + drain", maxHit-maxClean)
	}
}

func TestPartialDipOnlySlows(t *testing.T) {
	base := config{
		Seed: 8, DurationS: 10, Dist: traffic.FBWeb(),
		Pipes: []Pipe{{CapacityGbps: 1, UtilFrac: 0.5}},
	}
	clean, err := run(base)
	if err != nil {
		t.Fatal(err)
	}
	dipped := base
	dipped.Dips = map[int][]Dip{0: {
		{TimeS: 2, DurationS: 0.07, FracLost: 0.5},
		{TimeS: 4, DurationS: 0.07, FracLost: 0.5},
	}}
	hit, err := run(dipped)
	if err != nil {
		t.Fatal(err)
	}
	// 140 ms of half capacity in 10 s barely moves the needle.
	ratio := stats.Percentile(hit.fcts(false), 99) / stats.Percentile(clean.fcts(false), 99)
	if ratio < 1-1e-9 {
		t.Errorf("dips made flows faster: ratio %v", ratio)
	}
	if ratio > 1.5 {
		t.Errorf("brief dips inflated p99 by %vx; expected a small effect", ratio)
	}
}

func TestWarmupExcludesEarlyFlows(t *testing.T) {
	cfg := config{
		Seed: 9, DurationS: 10, WarmupS: 5, Dist: traffic.FBWeb(),
		Pipes: []Pipe{{CapacityGbps: 1, UtilFrac: 0.3}},
	}
	res, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range res.Flows {
		if f.ArriveS < 5 {
			t.Fatalf("flow arriving at %v not excluded by warmup", f.ArriveS)
		}
	}
}

func TestShortFlowFilter(t *testing.T) {
	res := result{Flows: []flow{
		{SizeBytes: 1e3, FCTSec: 1},
		{SizeBytes: 1e6, FCTSec: 2},
	}}
	if got := res.fcts(true); len(got) != 1 || got[0] != 1 {
		t.Errorf("short FCTs = %v", got)
	}
	if got := res.fcts(false); len(got) != 2 {
		t.Errorf("all FCTs = %v", got)
	}
}

func TestExperimentValidation(t *testing.T) {
	e := DefaultExperiment(1, 0.4, 5, 0.5, traffic.FBWeb())
	e.NDCs = 1
	if _, err := e.Run(); err == nil {
		t.Error("expected error for 1 DC")
	}
	e = DefaultExperiment(1, 0.4, 0, 0.5, traffic.FBWeb())
	if _, err := e.Run(); err == nil {
		t.Error("expected error for zero interval")
	}
	e = DefaultExperiment(1, 0.4, 5, 0.5, traffic.FBWeb())
	e.FibersPerPipe = 0
	if _, err := e.Run(); err == nil {
		t.Error("expected error for zero fibers")
	}
}

func TestExperimentFig17Point(t *testing.T) {
	// One Fig. 17 operating point: 40% utilization, 50% bounded changes,
	// 10 s interval. The paper reports ≤2% p99 slowdown at intervals of
	// 10 s or more.
	e := DefaultExperiment(11, 0.4, 10, 0.5, traffic.WebSearch())
	e.DurationS = 40
	rep, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.IrisFlows < 1000 {
		t.Fatalf("only %d flows; too few for percentile statistics", rep.IrisFlows)
	}
	if math.IsNaN(rep.All) || math.IsNaN(rep.Short) {
		t.Fatalf("NaN slowdowns: %+v", rep)
	}
	if rep.All < 0.98 {
		t.Errorf("slowdown %v below 1; dips cannot speed flows up", rep.All)
	}
	if rep.All > 1.10 {
		t.Errorf("slowdown %v; paper reports ≈1.02 at this point", rep.All)
	}
}

func TestExperimentUnboundedWorseThanBounded(t *testing.T) {
	bounded := DefaultExperiment(12, 0.7, 1, 0.5, traffic.WebSearch())
	bounded.DurationS = 30
	unbounded := DefaultExperiment(12, 0.7, 1, 0, traffic.WebSearch())
	unbounded.DurationS = 30
	rb, err := bounded.Run()
	if err != nil {
		t.Fatal(err)
	}
	ru, err := unbounded.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Unbounded changes at 1 s intervals are the paper's worst case; they
	// must hurt at least as much as bounded changes.
	if ru.All+0.02 < rb.All {
		t.Errorf("unbounded slowdown %v below bounded %v", ru.All, rb.All)
	}
	if ru.Reconfigs == 0 {
		t.Error("unbounded process produced no reconfigurations")
	}
}

// BenchmarkFlowsimPipe times the exact simulator on one 10 Gb/s pipe at
// half load for 10 simulated seconds; flows is the count it completes.
func BenchmarkFlowsimPipe(b *testing.B) {
	cfg := config{
		Seed: 1, DurationS: 10, Dist: traffic.WebSearch(),
		Pipes: []Pipe{{CapacityGbps: 10, UtilFrac: 0.5}},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(res.Flows)), "flows")
	}
}
