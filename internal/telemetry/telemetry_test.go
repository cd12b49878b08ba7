package telemetry

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests_total", "requests")
	c.Inc()
	c.Add(2)
	if c.Value() != 3 {
		t.Errorf("counter = %v, want 3", c.Value())
	}
	g := r.Gauge("depth", "queue depth")
	g.Set(3)
	if g.value() != 3 {
		t.Errorf("gauge = %v, want 3", g.value())
	}
}

// TestDuplicateRegistrationPanics is the multi-instance collision
// regression test: before the fix, registering an existing name silently
// returned the first instance's collector, so two daemons sharing one
// registry aliased their gauges and corrupted both regions' numbers. Now
// every duplicate claim — same type included — panics.
func TestDuplicateRegistrationPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: duplicate registration did not panic", name)
			}
		}()
		fn()
	}
	r := NewRegistry()
	r.Gauge("iris_circuits_active", "")
	mustPanic("gauge twice", func() { r.Gauge("iris_circuits_active", "") })
	r.Counter("steps_total", "")
	mustPanic("counter twice", func() { r.Counter("steps_total", "") })
	r.Histogram("lat_seconds", "", []float64{1})
	mustPanic("histogram twice", func() { r.Histogram("lat_seconds", "", []float64{1}) })
	r.CounterVec("per_dev_total", "", "device")
	mustPanic("countervec twice", func() { r.CounterVec("per_dev_total", "", "device") })
	mustPanic("cross-type", func() { r.Gauge("steps_total", "") })

	// Instance scoping: the same name on two different registries is two
	// independent collectors.
	r2 := NewRegistry()
	r2.Gauge("iris_circuits_active", "").Set(7)
}

func TestCounterRejectsDecrease(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative Add did not panic")
		}
	}()
	NewRegistry().Counter("c", "").Add(-1)
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("latency_seconds", "latency", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`latency_seconds_bucket{le="0.01"} 1`,
		`latency_seconds_bucket{le="0.1"} 2`,
		`latency_seconds_bucket{le="1"} 3`,
		`latency_seconds_bucket{le="+Inf"} 4`,
		`latency_seconds_sum 5.555`,
		`latency_seconds_count 4`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestWriteTextDeterministicOrder(t *testing.T) {
	r := NewRegistry()
	zeta := r.CounterVec("zeta_total", "z", "device")
	zeta.With("b").Inc()
	zeta.With("a").Inc()
	r.Gauge("alpha", "a").Set(1)
	var b1, b2 strings.Builder
	if err := r.WriteText(&b1); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteText(&b2); err != nil {
		t.Fatal(err)
	}
	if b1.String() != b2.String() {
		t.Error("two renders differ")
	}
	out := b1.String()
	if !strings.Contains(out, "# TYPE alpha gauge") || !strings.Contains(out, "# TYPE zeta_total counter") {
		t.Fatalf("missing TYPE lines:\n%s", out)
	}
	if strings.Index(out, "alpha") > strings.Index(out, "zeta_total") {
		t.Errorf("families not sorted by name:\n%s", out)
	}
	if strings.Index(out, `device="a"`) > strings.Index(out, `device="b"`) {
		t.Errorf("children not sorted by label value:\n%s", out)
	}
}

func TestVecChildrenAreStable(t *testing.T) {
	r := NewRegistry()
	v := r.GaugeVec("breaker_state", "state", "device")
	v.With("oss-1").Set(2)
	if got := v.With("oss-1").value(); got != 2 {
		t.Errorf("child lookup = %v, want 2", got)
	}
}

func TestMismatchedReRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "")
	defer func() {
		if recover() == nil {
			t.Error("type-mismatched re-registration did not panic")
		}
	}()
	r.Gauge("m", "")
}

func TestConcurrentUseIsRaceFree(t *testing.T) {
	r := NewRegistry()
	hits := r.Counter("hits_total", "")
	perDev := r.CounterVec("per_dev_total", "", "device")
	h := r.Histogram("h", "", []float64{1})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				hits.Inc()
				// Vec children stay dynamic after registration: With is the
				// concurrent lookup-or-create path.
				perDev.With("d").Inc()
				h.Observe(float64(j))
				var b strings.Builder
				_ = r.WriteText(&b)
			}
		}()
	}
	wg.Wait()
	if got := hits.Value(); got != 800 {
		t.Errorf("hits = %v, want 800", got)
	}
}

// TestMergeText pins the fleet's /metrics rollup: instance-scoped
// registries merged into one exposition, every sample stamped with the
// instance label, family labels composed, HELP/TYPE emitted once per
// family, and histogram le labels composed after the instance label.
func TestMergeText(t *testing.T) {
	r0, r1 := NewRegistry(), NewRegistry()
	r0.Counter("iris_reconfig_total", "reconfigs").Add(3)
	r1.Counter("iris_reconfig_total", "reconfigs").Add(5)
	r0.GaugeVec("iris_breaker_state", "breakers", "device").With("oss-1").Set(2)
	r1.Histogram("iris_reconfig_seconds", "latency", []float64{0.5}).Observe(0.25)
	r0.Gauge("only_in_r0", "singleton").Set(1)

	var b strings.Builder
	err := MergeText(&b, "region", []LabeledRegistry{
		{Value: "r000", Reg: r0},
		{Value: "r001", Reg: r1},
	})
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP iris_reconfig_total reconfigs\n# TYPE iris_reconfig_total counter\n",
		`iris_reconfig_total{region="r000"} 3`,
		`iris_reconfig_total{region="r001"} 5`,
		`iris_breaker_state{device="oss-1",region="r000"} 2`,
		`iris_reconfig_seconds_bucket{region="r001",le="0.5"} 1`,
		`iris_reconfig_seconds_bucket{region="r001",le="+Inf"} 1`,
		`iris_reconfig_seconds_count{region="r001"} 1`,
		`only_in_r0{region="r000"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("merged exposition missing %q:\n%s", want, out)
		}
	}
	if strings.Count(out, "# TYPE iris_reconfig_total counter") != 1 {
		t.Errorf("TYPE emitted more than once:\n%s", out)
	}
	// Samples of one family are grouped under its single header, regions
	// in the order the registries were given.
	if strings.Index(out, `{region="r000"} 3`) > strings.Index(out, `{region="r001"} 5`) {
		t.Errorf("merge did not preserve registry order:\n%s", out)
	}

	// A cross-instance type conflict is an error, not silent corruption.
	r2 := NewRegistry()
	r2.Gauge("iris_reconfig_total", "now a gauge")
	err = MergeText(&b, "region", []LabeledRegistry{
		{Value: "r000", Reg: r0},
		{Value: "r002", Reg: r2},
	})
	if err == nil {
		t.Error("merging conflicting family types did not error")
	}
}

// TestHistogramInfBucketCumulativeInvariant asserts the exposition
// invariants Prometheus clients rely on: bucket counts are cumulative and
// non-decreasing in bound order, and the +Inf bucket always equals
// <name>_count — including when every observation overflows the largest
// finite bound, and when a histogram has recorded nothing at all.
func TestHistogramInfBucketCumulativeInvariant(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("overflow_seconds", "all samples past the last bound", []float64{0.001, 0.01})
	for i := 0; i < 7; i++ {
		h.Observe(100) // beyond every finite bucket
	}
	r.Histogram("untouched_seconds", "registered, never observed", []float64{1, 2})

	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`overflow_seconds_bucket{le="0.001"} 0`,
		`overflow_seconds_bucket{le="0.01"} 0`,
		`overflow_seconds_bucket{le="+Inf"} 7`,
		`overflow_seconds_count 7`,
		`untouched_seconds_bucket{le="+Inf"} 0`,
		`untouched_seconds_sum 0`,
		`untouched_seconds_count 0`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}

	// The +Inf bucket must track _count exactly for a labeled family too,
	// with the le label composed onto the family label.
	hv := r.HistogramVec("phase_seconds", "per-phase", "phase", []float64{0.5})
	hv.With("drain").Observe(0.25)
	hv.With("drain").Observe(99)
	b.Reset()
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out = b.String()
	for _, want := range []string{
		`phase_seconds_bucket{phase="drain",le="0.5"} 1`,
		`phase_seconds_bucket{phase="drain",le="+Inf"} 2`,
		`phase_seconds_count{phase="drain"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestEmptyRegistryDeterminism pins down the exposition of nothing: an
// empty registry writes zero bytes, and doing so repeatedly — and after
// registering families with no samples — stays byte-identical between
// calls, so scrapes never flap on ordering.
func TestEmptyRegistryDeterminism(t *testing.T) {
	r := NewRegistry()
	var a, b strings.Builder
	if err := r.WriteText(&a); err != nil {
		t.Fatal(err)
	}
	if a.String() != "" {
		t.Errorf("empty registry wrote %q, want empty", a.String())
	}

	// Families with no children still emit HELP/TYPE headers (vecs before
	// any With) or zero-valued samples (plain collectors), in sorted name
	// order, identically on every scrape.
	r.CounterVec("zz_total", "latest name", "device")
	r.Gauge("aa_depth", "first name")
	if err := r.WriteText(&a); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("consecutive scrapes differ:\n%s\n---\n%s", a.String(), b.String())
	}
	out := b.String()
	if !strings.Contains(out, "# TYPE aa_depth gauge") || !strings.Contains(out, "# TYPE zz_total counter") {
		t.Errorf("headers missing from %q", out)
	}
	if strings.Index(out, "aa_depth") > strings.Index(out, "zz_total") {
		t.Errorf("families not sorted by name:\n%s", out)
	}
}
