package flowsim

import (
	"strings"
	"testing"

	"iris/internal/core"
	"iris/internal/hose"
	"iris/internal/telemetry"
)

func monitorAlloc() core.Allocation {
	return core.Allocation{
		Fibers:   map[hose.Pair]int{{A: 1, B: 2}: 2, {A: 1, B: 3}: 1},
		Residual: map[hose.Pair]int{{A: 2, B: 3}: 3},
	}
}

func TestMonitorObserveReconfig(t *testing.T) {
	reg := telemetry.NewRegistry()
	m, err := NewMonitor(MonitorConfig{
		Seed: 5, GbpsPerWavelength: 0.02, WindowS: 3, Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	moves := []core.Move{
		{Pair: hose.Pair{A: 1, B: 2}, FibersDelta: -1, FracAffected: 0.5},
		{Pair: hose.Pair{A: 2, B: 3}, FibersDelta: 1, FracAffected: 0.3},
	}
	imp, err := m.ObserveReconfig(42, monitorAlloc(), 4, moves, 0.070)
	if err != nil {
		t.Fatal(err)
	}
	if imp.ReconfigID != 42 || imp.Kind != "reconfig" {
		t.Errorf("impact identity = %+v", imp)
	}
	if imp.Pipes != 2 {
		t.Errorf("dimmed pipes = %d, want 2", imp.Pipes)
	}
	if imp.Flows == 0 {
		t.Error("no flows simulated")
	}
	if imp.P99 < 1 {
		t.Errorf("p99 slowdown %v < 1: dips made flows faster", imp.P99)
	}
	if imp.BytesStranded <= 0 {
		t.Error("drain stranded no bytes")
	}
	if last := m.Last(); last == nil || last.ReconfigID != 42 {
		t.Errorf("Last() = %+v", last)
	}
	// The same observation must be deterministic.
	again, err := m.ObserveReconfig(42, monitorAlloc(), 4, moves, 0.070)
	if err != nil {
		t.Fatal(err)
	}
	if again.P99 != imp.P99 || again.Flows != imp.Flows {
		t.Errorf("repeat observation differs: %+v vs %+v", again, imp)
	}

	var buf strings.Builder
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"iris_flowsim_runs_total 2",
		`iris_flowsim_slowdown{quantile="p99"}`,
		"iris_flowsim_p99_slowdown_bucket",
		"iris_flowsim_bytes_stranded_total",
		"iris_flowsim_peak_flows",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
}

func TestMonitorObserveRepair(t *testing.T) {
	m, err := NewMonitor(MonitorConfig{Seed: 5, GbpsPerWavelength: 0.02, WindowS: 3})
	if err != nil {
		t.Fatal(err)
	}
	darkened := []core.Move{{Pair: hose.Pair{A: 2, B: 1}, FracAffected: 0.5}, {Pair: hose.Pair{A: 2, B: 3}, FracAffected: 1}}
	imp, err := m.ObserveRepair(7, monitorAlloc(), 4, darkened, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if imp.Kind != "repair" {
		t.Errorf("kind = %q, want repair", imp.Kind)
	}
	if imp.Pipes != 2 {
		t.Errorf("a repair that darkened 2 pipes dims %d", imp.Pipes)
	}
	if imp.P99 < 1 {
		t.Errorf("p99 slowdown %v < 1", imp.P99)
	}
}

func TestMonitorValidation(t *testing.T) {
	if _, err := NewMonitor(MonitorConfig{Util: 1.2}); err == nil {
		t.Error("expected error for utilization >= 1")
	}
	m, err := NewMonitor(MonitorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.ObserveReconfig(1, monitorAlloc(), 0, nil, 0.070); err == nil {
		t.Error("expected error for lambda 0")
	}
	if _, err := m.ObserveReconfig(1, core.Allocation{}, 4, nil, 0.070); err == nil {
		t.Error("expected error for empty allocation")
	}
	// No moves touching pipes: a no-op impact, not an error.
	imp, err := m.ObserveReconfig(1, monitorAlloc(), 4, nil, 0.070)
	if err != nil {
		t.Fatal(err)
	}
	if imp.Pipes != 0 || imp.P99 != 1 {
		t.Errorf("no-op impact = %+v, want 0 pipes and unit slowdown", imp)
	}
}
