package flowsim

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"iris/internal/stats"
	"iris/internal/traffic"
)

func loadTestConfig() config {
	return config{
		Seed: 23, DurationS: 20, WarmupS: 2,
		Dist: traffic.FBWeb(),
		Pipes: []Pipe{
			{CapacityGbps: 0.5, UtilFrac: 0.7},
			{CapacityGbps: 1.0, UtilFrac: 0.5},
			{CapacityGbps: 0.25, UtilFrac: 0.85},
		},
		Dips: map[int][]Dip{
			0: {{TimeS: 4, DurationS: 3, FracLost: 0.5}, {TimeS: 5, DurationS: 3, FracLost: 0.9}},
			1: {{TimeS: 8, DurationS: 1, FracLost: 1}},
			2: {{TimeS: 3, DurationS: 0.07, FracLost: 0.25}, {TimeS: 9, DurationS: 0.07, FracLost: 0.5}},
		},
	}
}

func runLoadFromExact(t *testing.T, cfg config) LoadStats {
	t.Helper()
	st, err := RunLoad(LoadConfig{
		Seed: cfg.Seed, DurationS: cfg.DurationS, WarmupS: cfg.WarmupS,
		Dist: cfg.Dist, Pipes: cfg.Pipes, Dips: cfg.Dips,
	})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestLoadEngineMatchesExactSimulator is the engine's ground truth: with
// a flat arrival shape it consumes the same RNG stream and replays the
// same event sequence as the heap-based reference simulator, so the flows
// run records from it must equal the reference's one for one, bit for bit,
// and the sketch quantiles must sit within the sketch's ~1% bucket
// resolution of the exact empirical quantiles.
func TestLoadEngineMatchesExactSimulator(t *testing.T) {
	cfg := loadTestConfig()
	exact, err := runExact(cfg)
	if err != nil {
		t.Fatal(err)
	}
	recorded, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(recorded.Flows) != len(exact.Flows) || recorded.Incomplete != exact.Incomplete {
		t.Fatalf("engine recorded %d flows and %d incomplete, reference %d and %d",
			len(recorded.Flows), recorded.Incomplete, len(exact.Flows), exact.Incomplete)
	}
	if len(exact.Flows) < 10000 {
		t.Fatalf("only %d flows: the comparison tests little", len(exact.Flows))
	}
	for i, f := range recorded.Flows {
		if f != exact.Flows[i] {
			t.Fatalf("flow %d: engine %+v, reference %+v", i, f, exact.Flows[i])
		}
	}
	st := runLoadFromExact(t, cfg)

	if got, want := st.Flows, uint64(len(exact.Flows)); got != want {
		t.Fatalf("engine completed %d flows, reference simulator %d", got, want)
	}
	if got, want := st.Incomplete, uint64(exact.Incomplete); got != want {
		t.Fatalf("engine left %d incomplete, reference simulator %d", got, want)
	}
	var bytes float64
	for _, f := range exact.Flows {
		bytes += f.SizeBytes
	}
	if math.Abs(st.BytesCompleted-bytes) > 1e-6*bytes {
		t.Errorf("bytes completed %v vs exact %v", st.BytesCompleted, bytes)
	}
	for _, q := range []float64{50, 90, 99, 99.9} {
		want := stats.Percentile(exact.fcts(false), q)
		got := st.FCT.Quantile(q / 100)
		if math.Abs(got-want) > 0.025*want {
			t.Errorf("p%v FCT: sketch %v vs exact %v", q, got, want)
		}
	}
	wantShort := stats.Percentile(exact.fcts(true), 99)
	if got := st.ShortFCT.Quantile(0.99); math.Abs(got-wantShort) > 0.025*wantShort {
		t.Errorf("short-flow p99: sketch %v vs exact %v", got, wantShort)
	}
}

// The event sequence is independent of the calendar bucket width, which
// each pipe's loop is given directly, and of how many pipes run at once.
func TestLoadEngineInvariantToBucketWidthAndWorkers(t *testing.T) {
	cfg := loadTestConfig()
	same := func(what string, got, want LoadStats) {
		t.Helper()
		if got.Flows != want.Flows || got.Incomplete != want.Incomplete {
			t.Errorf("%s: counts %d/%d differ from base %d/%d",
				what, got.Flows, got.Incomplete, want.Flows, want.Incomplete)
		}
		if got.FCT.Quantile(0.99) != want.FCT.Quantile(0.99) {
			t.Errorf("%s: p99 %v differs from base %v", what, got.FCT.Quantile(0.99), want.FCT.Quantile(0.99))
		}
		if got.BytesStranded != want.BytesStranded {
			t.Errorf("%s: stranded %v differs from base %v", what, got.BytesStranded, want.BytesStranded)
		}
	}
	for name, width := range map[string]float64{"coarse buckets": cfg.Dist.Max() / 4, "fine buckets": cfg.Dist.Max() / 512} {
		for i, p := range cfg.Pipes {
			pipe := func(width float64) LoadStats {
				return loadPipe(pipeRNG(cfg.Seed, i), p, cfg.Dips[i], cfg.Dist, cfg.Dist.Mean(),
					width, cfg.DurationS, cfg.WarmupS, nil, nil)
			}
			same(fmt.Sprintf("%s, pipe %d", name, i), pipe(width), pipe(0))
		}
	}
	base := runLoadFromExact(t, cfg)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 8} {
		runtime.GOMAXPROCS(procs)
		same(fmt.Sprintf("GOMAXPROCS %d", procs), runLoadFromExact(t, cfg), base)
	}
}

// A full outage accumulates a backlog of lambda×duration flows and
// strands capacity×duration bytes; both must show up in the stats.
func TestLoadEngineFullOutageBacklogAndStranding(t *testing.T) {
	pipe := Pipe{CapacityGbps: 1, UtilFrac: 0.5}
	outageS := 2.0
	st, err := RunLoad(LoadConfig{
		Seed: 9, DurationS: 12, WarmupS: 1,
		Dist:  traffic.FBWeb(),
		Pipes: []Pipe{pipe},
		Dips:  map[int][]Dip{0: {{TimeS: 5, DurationS: outageS, FracLost: 1}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	capBytes := pipe.CapacityGbps * 1e9 / 8
	lambda := pipe.UtilFrac * capBytes / traffic.FBWeb().Mean()
	backlog := lambda * outageS
	if float64(st.PeakConcurrent) < 0.8*backlog {
		t.Errorf("peak concurrency %d under 80%% of expected outage backlog %.0f",
			st.PeakConcurrent, backlog)
	}
	wantStranded := capBytes * outageS
	if math.Abs(st.BytesStranded-wantStranded) > 0.02*wantStranded {
		t.Errorf("stranded %v bytes, want ~%v (capacity×outage)", st.BytesStranded, wantStranded)
	}
	if st.Flows == 0 || st.FCT.Quantile(0.999) <= st.FCT.Quantile(0.5) {
		t.Errorf("degenerate FCT sketch: n=%d p50=%v p999=%v",
			st.Flows, st.FCT.Quantile(0.5), st.FCT.Quantile(0.999))
	}
}

// Shaped arrivals: a diurnal swing over whole periods preserves the mean
// rate (thinning is unbiased), and a flash crowd adds flows.
func TestLoadEngineShapedArrivals(t *testing.T) {
	cfg := LoadConfig{
		Seed: 31, DurationS: 40, WarmupS: 0,
		Dist:  traffic.FBWeb(),
		Pipes: []Pipe{{CapacityGbps: 0.5, UtilFrac: 0.6}},
	}
	flat, err := RunLoad(cfg)
	if err != nil {
		t.Fatal(err)
	}

	diurnal, err := traffic.NewShape(1, traffic.LoadProfile{DiurnalAmp: 0.5, DiurnalPeriodS: 10}, cfg.DurationS)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Shape = diurnal
	shaped, err := RunLoad(cfg)
	if err != nil {
		t.Fatal(err)
	}
	total := float64(flat.Flows + flat.Incomplete)
	gotTotal := float64(shaped.Flows + shaped.Incomplete)
	if math.Abs(gotTotal-total) > 0.1*total {
		t.Errorf("diurnal shaping changed mean arrivals: %v vs flat %v", gotTotal, total)
	}

	flash, err := traffic.NewShape(2, traffic.LoadProfile{FlashEveryS: 10, FlashDurationS: 4, FlashMult: 1.6}, cfg.DurationS)
	if err != nil {
		t.Fatal(err)
	}
	if flash.Flashes() == 0 {
		t.Fatal("no flash windows drawn")
	}
	cfg.Shape = flash
	crowded, err := RunLoad(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if float64(crowded.Flows+crowded.Incomplete) <= 1.05*total {
		t.Errorf("flash crowds added no load: %d flows vs flat %v", crowded.Flows+crowded.Incomplete, total)
	}
}

func TestLoadEngineValidation(t *testing.T) {
	if _, err := RunLoad(LoadConfig{}); err == nil {
		t.Error("expected error for empty config")
	}
	if _, err := RunLoad(LoadConfig{DurationS: 1, Dist: traffic.FBWeb(),
		Pipes: []Pipe{{CapacityGbps: 1, UtilFrac: 1.5}}}); err == nil {
		t.Error("expected error for utilization >= 1")
	}
}

func TestSketchQuantiles(t *testing.T) {
	s := newSketch()
	if s.Quantile(0.5) != 0 || s.n != 0 {
		t.Error("empty sketch not zero-valued")
	}
	// 1..10000 ms: every quantile is known analytically.
	var xs []float64
	for i := 1; i <= 10000; i++ {
		x := float64(i) * 1e-3
		s.observe(x)
		xs = append(xs, x)
	}
	for _, q := range []float64{1, 25, 50, 90, 99, 99.9} {
		want := stats.Percentile(xs, q)
		got := s.Quantile(q / 100)
		if math.Abs(got-want) > 0.02*want+1e-3 {
			t.Errorf("p%v = %v, want %v", q, got, want)
		}
	}
	// Merge of halves equals the whole.
	a, b := newSketch(), newSketch()
	for i, x := range xs {
		if i%2 == 0 {
			a.observe(x)
		} else {
			b.observe(x)
		}
	}
	a.merge(b)
	if a.n != s.n || a.Quantile(0.99) != s.Quantile(0.99) {
		t.Error("merged sketch differs from single sketch")
	}
}
