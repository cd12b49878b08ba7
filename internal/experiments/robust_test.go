package experiments

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"iris/internal/control"
	"iris/internal/daemon"
	"iris/internal/fabric"
	"iris/internal/robust"
	"iris/internal/telemetry"
	"iris/internal/traffic/traffictest"
)

// robustGolden is what irisbench -exp robust prints, timing line aside.
const robustGolden = "../../testdata/golden/irisbench-robust.txt"

// TestRobustAblationChurnTrade is the headline acceptance property: on
// the same seeded feed, the robust envelope policy must commit strictly
// fewer reconfigurations than the per-shift delta policy, with its worst
// p99 flow slowdown staying within 2× delta mode's (the envelope re-plans
// are full solves, so each one moves more — the bound says they don't
// move pathologically more). The default grid must print the golden
// file's bytes; cmd/irisbench's TestPrintsTheGolden -update rewrites it.
func TestRobustAblationChurnTrade(t *testing.T) {
	grid, err := RobustAblation(DefaultRobustAblation())
	if err != nil {
		t.Fatal(err)
	}
	got := FormatRobustAblation(grid)
	want, err := os.ReadFile(robustGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("default grid differs from %s:\n%s", robustGolden, got)
	}

	cfg := DefaultRobustAblation()
	cfg.Steps = 12 // trimmed grid: keep the unit test fast
	cfg.Windows = []int{4}
	rows, err := RobustAblation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(cfg.Windows)*len(cfg.Bounds) {
		t.Fatalf("got %d rows, want %d", len(rows), len(cfg.Windows)*len(cfg.Bounds))
	}
	for _, r := range rows {
		if r.RobustReconfigs >= r.DeltaReconfigs {
			t.Errorf("window %d bound %.2f: robust reconfigs %d ≥ delta %d",
				r.Window, r.Bound, r.RobustReconfigs, r.DeltaReconfigs)
		}
		if r.Absorbed == 0 {
			t.Errorf("window %d bound %.2f: envelope absorbed no shifts", r.Window, r.Bound)
		}
		if r.Overprovision < 1 {
			t.Errorf("window %d bound %.2f: overprovision %.2f < 1", r.Window, r.Bound, r.Overprovision)
		}
		if !r.AllAdmissible {
			t.Errorf("window %d bound %.2f: committed envelope not admissible for its set", r.Window, r.Bound)
		}
		if bound := 2 * maxf(r.DeltaP99, 1); r.RobustP99 > bound {
			t.Errorf("window %d bound %.2f: robust p99 %.4f above %.4f (2× delta, floor 1)",
				r.Window, r.Bound, r.RobustP99, bound)
		}
	}
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func TestRobustAblationRejectsInvalidConfig(t *testing.T) {
	for _, cfg := range []RobustAblationConfig{
		{Steps: 1, Windows: []int{4}, Bounds: []float64{0.2}},
		{Steps: 10, Bounds: []float64{0.2}},
		{Steps: 10, Windows: []int{4}},
	} {
		if _, err := RobustAblation(cfg); err == nil {
			t.Errorf("RobustAblation accepted invalid config %+v", cfg)
		}
	}
}

// TestRobustAblationIsIrisd holds the ablation to the daemon: replaying
// the bound-0.2, window-4 cell's matrices through irisd on the ablation's
// own deployment, once under each policy, must reconfigure as often as
// the row says and absorb as many shifts.
func TestRobustAblationIsIrisd(t *testing.T) {
	cfg := DefaultRobustAblation()
	cfg.Windows, cfg.Bounds = []int{4}, []float64{0.2}
	rows, err := RobustAblation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	row := rows[0]
	dep, err := robustDeployment()
	if err != nil {
		t.Fatal(err)
	}
	ms, err := matrixSequence(dep, cfg, row.Bound)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name                string
		robust              *robust.Config
		reconfigs, absorbed int
	}{
		{"per-shift", nil, row.DeltaReconfigs, 0},
		{"envelope", &robust.Config{Window: row.Window, Headroom: cfg.Headroom}, row.RobustReconfigs, row.Absorbed},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fab, err := fabric.Build(dep)
			if err != nil {
				t.Fatal(err)
			}
			tb, err := control.StartTestbed(fab.Devices(0))
			if err != nil {
				t.Fatal(err)
			}
			defer tb.Close()
			reg := telemetry.NewRegistry()
			d, err := daemon.New(daemon.Config{
				Fab:        fab,
				Controller: tb.Controller,
				Feed:       traffictest.NewReplay(ms...),
				Registry:   reg,
				Robust:     tc.robust,
			})
			if err != nil {
				t.Fatal(err)
			}
			d.ProbeOnce()
			for !d.Step() {
			}
			if st := d.Status(); st.LastError != "" {
				t.Fatalf("daemon: %s", st.LastError)
			}
			var b strings.Builder
			if err := reg.WriteText(&b); err != nil {
				t.Fatal(err)
			}
			metric := func(name string) string {
				for _, line := range strings.Split(b.String(), "\n") {
					if v, ok := strings.CutPrefix(line, name+" "); ok {
						return v
					}
				}
				return "absent"
			}
			if got, want := metric("iris_reconfig_total"), fmt.Sprint(tc.reconfigs); got != want {
				t.Errorf("iris_reconfig_total = %s, the ablation row says %s", got, want)
			}
			if tc.robust != nil {
				if got, want := metric("iris_robust_in_envelope_total"), fmt.Sprint(tc.absorbed); got != want {
					t.Errorf("iris_robust_in_envelope_total = %s, the ablation row says %s", got, want)
				}
			}
		})
	}
}
