package telemetry

import (
	"fmt"
	"io"
	"math/rand"
	"strconv"
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

// TestEscapingFollowsTheTextFormat: a label value escapes backslash,
// double quote and line feed, and nothing else; HELP text escapes
// backslash and line feed. A tab and a non-ASCII rune are written as they
// are, where Go's %q wrote \t and \u00a0.
func TestEscapingFollowsTheTextFormat(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("odd_total", "back\\slash, \"quotes\",\nnew line,\ttab, nbsp\u00a0é", "device").
		With("a\\b\"c\nd\te\u00a0fé").Inc()
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	want := "# HELP odd_total back\\\\slash, \"quotes\",\\nnew line,\ttab, nbsp\u00a0é\n" +
		"# TYPE odd_total counter\n" +
		"odd_total{device=\"a\\\\b\\\"c\\nd\te\u00a0fé\"} 1\n"
	if b.String() != want {
		t.Errorf("exposition\n%q\nwant\n%q", b.String(), want)
	}

	b.Reset()
	err := MergeText(&b, "region", []LabeledRegistry{{Value: "r\"1\t\u00a0", Reg: r}})
	if err != nil {
		t.Fatal(err)
	}
	if line := "odd_total{device=\"a\\\\b\\\"c\\nd\te\u00a0fé\",region=\"r\\\"1\t\u00a0\"} 1\n"; !strings.HasSuffix(b.String(), line) {
		t.Errorf("merged exposition\n%q\nwant it to end with\n%q", b.String(), line)
	}
}

// sample is one parsed sample line of an exposition.
type sample struct {
	name   string
	labels map[string]string
	value  string
}

// parseExposition reads the sample lines of a text exposition whose label
// values hold no comma, brace or escape, and counts its HELP and TYPE
// lines per family.
func parseExposition(t *testing.T, text string) (samples []sample, help, typ map[string]int) {
	t.Helper()
	help, typ = make(map[string]int), make(map[string]int)
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		if f := strings.Fields(line); len(f) >= 3 && f[0] == "#" {
			switch f[1] {
			case "HELP":
				help[f[2]]++
			case "TYPE":
				typ[f[2]]++
			}
			continue
		}
		series, value, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed line %q", line)
		}
		s := sample{name: series, labels: make(map[string]string), value: value}
		if name, set, ok := strings.Cut(series, "{"); ok {
			s.name = name
			for _, pair := range strings.Split(strings.TrimSuffix(set, "}"), ",") {
				k, v, _ := strings.Cut(pair, "=")
				s.labels[k] = strings.Trim(v, `"`)
			}
		}
		samples = append(samples, s)
	}
	return samples, help, typ
}

// checkHistograms asserts, for every histogram series of an exposition
// (one per value of the labels other than le), that its buckets are
// non-decreasing in the order written and its +Inf bucket equals its
// _count.
func checkHistograms(t *testing.T, text string) (series int) {
	t.Helper()
	samples, _, _ := parseExposition(t, text)
	key := func(s sample, name string) string {
		return name + "|" + s.labels["phase"] + "|" + s.labels["region"]
	}
	last := make(map[string]int)
	inf := make(map[string]string)
	for _, s := range samples {
		switch {
		case strings.HasSuffix(s.name, "_bucket"):
			k := key(s, strings.TrimSuffix(s.name, "_bucket"))
			n, err := strconv.Atoi(s.value)
			if err != nil {
				t.Fatalf("bucket %v: %v", s, err)
			}
			if prev, ok := last[k]; ok && n < prev {
				t.Errorf("%s: bucket le=%s holds %d, below the bucket before it (%d)", k, s.labels["le"], n, prev)
			}
			last[k] = n
			if s.labels["le"] == "+Inf" {
				inf[k] = s.value
			}
		case strings.HasSuffix(s.name, "_count"):
			k := key(s, strings.TrimSuffix(s.name, "_count"))
			if inf[k] != s.value {
				t.Errorf("%s: +Inf bucket %q, _count %q", k, inf[k], s.value)
			}
			series++
		}
	}
	return series
}

// TestMergeTextKeepsHistogramSemantics: in a merged exposition every
// region's histogram is still one — buckets non-decreasing, +Inf equal
// to _count — and each family's HELP and TYPE appear once, also for a
// family only some registries hold.
func TestMergeTextKeepsHistogramSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var regs []LabeledRegistry
	for i := range 5 {
		r := fixedRegistry(i % 3)
		ph := r.HistogramVec("iris_merge_phase_seconds", "Observed at random.", "phase", []float64{0.1, 1, 10})
		for range rng.Intn(40) {
			ph.With([]string{"drain", "switch", "undrain"}[rng.Intn(3)]).Observe(rng.ExpFloat64())
		}
		regs = append(regs, LabeledRegistry{Value: fmt.Sprintf("r%03d", i), Reg: r})
	}
	var b strings.Builder
	if err := MergeText(&b, "region", regs); err != nil {
		t.Fatal(err)
	}
	if n := checkHistograms(t, b.String()); n < 20 {
		t.Fatalf("only %d histogram series checked", n)
	}
	_, help, typ := parseExposition(t, b.String())
	for _, name := range []string{"iris_only_in_one_total", "iris_not_in_one", "iris_never_labeled", "iris_merge_phase_seconds", "iris_steps_total"} {
		if help[name] != 1 || typ[name] != 1 {
			t.Errorf("%s: %d HELP and %d TYPE lines, want one each", name, help[name], typ[name])
		}
	}
	if len(help) != len(typ) {
		t.Errorf("%d families have HELP, %d TYPE", len(help), len(typ))
	}
	for name, n := range help {
		if n != 1 {
			t.Errorf("%s: %d HELP lines", name, n)
		}
	}
}

// TestScrapeBesideWrites scrapes, alone and merged, while other
// goroutines observe, count, create children with With — in no label
// order, so most land between existing ones — and register families.
// Every scrape must be a well-formed exposition: children in label order
// and each histogram whole. CI runs it many times under -race.
func TestScrapeBesideWrites(t *testing.T) {
	regs := []LabeledRegistry{{Value: "r0", Reg: NewRegistry()}, {Value: "r1", Reg: NewRegistry()}}
	var wg sync.WaitGroup
	for w, lr := range regs {
		hits := lr.Reg.Counter("hits_total", "")
		perDev := lr.Reg.CounterVec("per_dev_total", "", "device")
		phases := lr.Reg.HistogramVec("phase_seconds", "", "phase", []float64{0.5, 1})
		for g := range 2 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range 500 {
					hits.Inc()
					perDev.With(fmt.Sprintf("d%04d", (i*7919+g*31)%5000)).Inc()
					phases.With(fmt.Sprintf("p%d", (i+w)%9)).Observe(float64(i%3) * 0.4)
					if i%100 == 0 {
						lr.Reg.Gauge(fmt.Sprintf("late_%d_%04d", g, (i*37)%500), "").Set(float64(i))
					}
				}
			}()
		}
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for last := false; !last; {
		select {
		case <-done:
			last = true
		default:
		}
		var b strings.Builder
		if err := regs[0].Reg.WriteText(&b); err != nil {
			t.Fatal(err)
		}
		if err := MergeText(&b, "region", regs); err != nil {
			t.Fatal(err)
		}
		checkHistograms(t, b.String())
		samples, _, _ := parseExposition(t, b.String())
		for i := 1; i < len(samples); i++ {
			a, c := samples[i-1], samples[i]
			if a.name == c.name && a.labels["region"] == c.labels["region"] && a.labels["device"] > c.labels["device"] {
				t.Fatalf("children out of label order: %v before %v", a, c)
			}
		}
	}
}

// BenchmarkMetricsRender is one scrape of a registry of 10 series and
// one of 1 000: counters, gauges and histograms, labeled and not. It
// fails unless both allocate the same number of times, so a scrape's
// allocations do not grow with what it renders (none today, warmed).
func BenchmarkMetricsRender(b *testing.B) {
	build := func(series int) *Registry {
		r := NewRegistry()
		r.Counter("steps_total", "Steps.").Add(12)
		r.Gauge("circuits", "Circuits.").Set(3.5)
		h := r.HistogramVec("phase_seconds", "Phases.", "phase", []float64{0.001, 0.01, 0.1, 1})
		c := r.CounterVec("probe_failures_total", "Failures.", "device")
		g := r.GaugeVec("breaker_state", "State.", "device")
		for i := 0; i < series-2; i++ {
			switch v := fmt.Sprintf("oss-%d", i); i % 3 {
			case 0:
				h.With(v).Observe(float64(i) / 1000)
			case 1:
				c.With(v).Add(float64(i))
			default:
				g.With(v).Set(float64(i) / 7)
			}
		}
		return r
	}
	small, large := build(10), build(1000)
	scrape := func(r *Registry) func() {
		return func() {
			if err := r.WriteText(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	}
	scrape(large)()
	if s, l := testing.AllocsPerRun(50, scrape(small)), testing.AllocsPerRun(50, scrape(large)); s != l {
		b.Fatalf("a scrape of 10 series allocates %.0f times, one of 1 000 %.0f", s, l)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scrape(large)()
	}
}
