package telemetry

import (
	"flag"
	"math"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden/telemetry-exposition.txt")

const expositionGolden = "../../testdata/golden/telemetry-exposition.txt"

// fixedRegistry is a registry whose every value is set by hand: counters,
// gauges and histograms, unlabeled and labeled, an empty histogram, and
// ±Inf, NaN and fractional samples. variant changes the values and which
// children and families exist, so a merge of several variants has
// families that only some registries hold.
func fixedRegistry(variant int) *Registry {
	r := NewRegistry()
	f := float64(variant)
	r.Counter("iris_steps_total", "Control-loop steps.").Add(17 + f)
	r.Gauge("iris_circuits_active", "Lit circuits.").Set(0.125 * (f + 1))
	r.Gauge("iris_headroom", "Infinite until the first tick.").Set(math.Inf(1 - 2*(variant%2)))
	r.Gauge("iris_ratio", "Undefined on an empty region.").Set(math.NaN())
	h := r.Histogram("iris_reconfig_seconds", "Reconfiguration latency.", []float64{0.5, 0.001, 0.01, 1e-7, 2.5e6})
	for _, v := range []float64{0.0005, 0.3, 0.3, 7, 1e9, 0.000000001} {
		h.Observe(v * (f + 1))
	}
	r.Histogram("iris_empty_seconds", "Registered, never observed.", []float64{1, 2})
	phases := r.HistogramVec("iris_phase_seconds", "Per-phase latency.", "phase", []float64{0.01, 0.1})
	for i, p := range []string{"undrain", "drain", "switch"}[:1+variant] {
		phases.With(p).Observe(0.05 * float64(i+1))
		phases.With(p).Observe(3)
	}
	devs := r.CounterVec("iris_probe_failures_total", "Failed device probes.", "device")
	for i, d := range []string{"oss-10", "oss-2", "amp-0", `quo"te`, `back\slash`, "new\nline", "café"} {
		if (i+variant)%3 != 0 {
			devs.With(d).Add(float64(i) + 0.5)
		}
	}
	state := r.GaugeVec("iris_breaker_state", "Breaker state per device.", "device")
	state.With("oss-1").Set(-2.75)
	state.With("oss-0").Set(math.Inf(-1))
	if variant == 1 {
		r.CounterVec("iris_only_in_one_total", "A family one registry has.", "kind").With("cut").Inc()
		r.GaugeVec("iris_never_labeled", "A vec with no child yet.", "device")
	}
	if variant != 1 {
		r.Gauge("iris_not_in_one", "A family one registry lacks.").Set(1e21)
	}
	return r
}

// goldenExposition is what testdata/golden/telemetry-exposition.txt
// holds: fixedRegistry(0)'s WriteText, then a MergeText of three
// variants.
func goldenExposition(t *testing.T) string {
	var b strings.Builder
	if err := fixedRegistry(0).WriteText(&b); err != nil {
		t.Fatal(err)
	}
	b.WriteString("# ---- merged ----\n")
	regs := []LabeledRegistry{
		{Value: "r002", Reg: fixedRegistry(2)},
		{Value: "r000", Reg: fixedRegistry(0)},
		{Value: "r001", Reg: fixedRegistry(1)},
	}
	if err := MergeText(&b, "region", regs); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestExpositionGolden pins the exposition's bytes: a rewrite of the
// renderer must answer every scrape exactly as before. go test -run
// TestExpositionGolden -update rewrites the file.
func TestExpositionGolden(t *testing.T) {
	got := goldenExposition(t)
	if *update {
		if err := os.WriteFile(expositionGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(expositionGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("exposition differs from %s:\n%s", expositionGolden, got)
	}
}
