package daemon

import (
	"encoding/json"
	"io"
	"net/http/httptest"
	"strings"
	"testing"

	"iris/internal/flowsim"
	"iris/internal/telemetry"
	"iris/internal/traffic/traffictest"
)

// TestDaemonReportsFlowImpact wires the flow monitor into the control
// loop: after a real reconfiguration the daemon must publish the
// simulated slowdown on /status (flow_impact) and iris_flowsim_* on
// /metrics.
func TestDaemonReportsFlowImpact(t *testing.T) {
	rig := toyRig(t, nil)
	reg := telemetry.NewRegistry()
	mon, err := flowsim.NewMonitor(flowsim.MonitorConfig{
		Seed: 11, GbpsPerWavelength: 0.01, WindowS: 2, Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	feed := traffictest.NewReplay(
		toyMatrix(rig, 60, 45),
		toyMatrix(rig, 20, 95), // forces circuit moves → a monitored reconfig
	)
	d, err := New(Config{
		Fab:         rig.Fab,
		Controller:  rig.Testbed.Controller,
		Feed:        feed,
		Registry:    reg,
		FlowMonitor: mon,
		Logger:      testLogger(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	d.ProbeOnce()
	d.Step() // first convergence: no LKG yet, nothing to compare against
	if mon.Last() != nil {
		t.Error("first convergence observed an impact without a prior allocation")
	}
	d.Step()
	imp := mon.Last()
	if imp == nil {
		t.Fatal("second shift reconfigured but no flow impact was observed")
	}
	if imp.Kind != "reconfig" || imp.Pipes == 0 || imp.Flows == 0 {
		t.Fatalf("impact = %+v, want a reconfig with dimmed pipes and flows", imp)
	}
	if imp.P99 < 1 {
		t.Errorf("p99 slowdown %v < 1", imp.P99)
	}

	srv := httptest.NewServer(d.Handler())
	defer srv.Close()
	res, err := srv.Client().Get(srv.URL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	var st Status
	if err := json.NewDecoder(res.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if st.FlowImpact == nil {
		t.Fatal("/status has no flow_impact")
	}
	if st.FlowImpact.ReconfigID != imp.ReconfigID || st.FlowImpact.P99 != imp.P99 {
		t.Errorf("/status flow_impact %+v != monitor %+v", st.FlowImpact, imp)
	}

	res, err = srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(res.Body)
	res.Body.Close()
	for _, want := range []string{
		"iris_flowsim_runs_total 1",
		`iris_flowsim_slowdown{quantile="p999"}`,
		"iris_flowsim_flows_simulated_total",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// A repair closes as a commit does: one that writes replays its flow
	// impact under its own ID, and a clean one replays nothing.
	dev, in := firstCircuit(d)
	if _, err := rig.Testbed.Devices[dev].Handle("switch-batch",
		map[string]any{"disconnect": []int{in}, "ins": []int{}, "outs": []int{}}); err != nil {
		t.Fatal(err)
	}
	for _, wrote := range []bool{true, false} {
		before := mon.Last().ReconfigID
		if err := d.repair(); err != nil {
			t.Fatalf("repair: %v", err)
		}
		after := mon.Last()
		if replayed := after.ReconfigID != before; replayed != wrote || (wrote && after.Kind != "repair") {
			t.Errorf("repair that wrote %v: last impact %+v, reconfig %d before it", wrote, after, before)
		}
	}
}

// TestRepairImpactCountsWhatItDarkened: a repair that reconnects one
// disconnected cross-connect drains nothing, yet that circuit was dark
// until the repair, so its pipe, and only its, dips.
func TestRepairImpactCountsWhatItDarkened(t *testing.T) {
	rig := toyRig(t, nil)
	mon, err := flowsim.NewMonitor(flowsim.MonitorConfig{Seed: 11, GbpsPerWavelength: 0.01, WindowS: 2})
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(Config{
		Fab:         rig.Fab,
		Controller:  rig.Testbed.Controller,
		Feed:        traffictest.NewReplay(toyMatrix(rig, 60, 45)),
		FlowMonitor: mon,
		Logger:      testLogger(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	d.ProbeOnce()
	d.Step()
	dev, in := firstCircuit(d)
	if _, err := rig.Testbed.Devices[dev].Handle("switch-batch",
		map[string]any{"disconnect": []int{in}, "ins": []int{}, "outs": []int{}}); err != nil {
		t.Fatal(err)
	}
	if err := d.repair(); err != nil {
		t.Fatalf("repair: %v", err)
	}
	imp := mon.Last()
	if imp == nil || imp.Kind != "repair" || imp.Pipes != 1 || imp.Flows == 0 || imp.BytesStranded <= 0 {
		t.Fatalf("impact of a repair that reconnected one circuit = %+v, want one dimmed pipe that strands bytes", imp)
	}
}
