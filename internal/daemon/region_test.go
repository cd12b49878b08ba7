package daemon_test

import (
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"iris/internal/daemon"
	"iris/internal/telemetry"
)

// TestBuildRegionAssemblesEverything exercises the shared assembly path:
// one call brings up the toy fabric behind chaos shims, arms the injector
// and flow monitor on the region's registry, and hands back a daemon that
// converges and publishes a demand aggregate.
func TestBuildRegionAssemblesEverything(t *testing.T) {
	cfg := daemon.DefaultRegionConfig()
	cfg.OSSDelay = 0
	cfg.Steps = 2
	cfg.Chaos = true
	cfg.FlowLoad = true
	cfg.FlowWindow = time.Second
	cfg.FlowGbps = 0.02
	cfg.TraceEvents = 1024
	b, err := daemon.BuildRegion(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if b.Injector == nil || b.Devices == nil {
		t.Fatal("chaos requested but injector/device set missing")
	}
	if b.Monitor == nil {
		t.Fatal("flow monitor requested but missing")
	}
	if b.Tracer == nil {
		t.Fatal("tracer missing")
	}

	if _, ok := b.Daemon.Demand(); ok {
		t.Fatal("demand aggregate published before first convergence")
	}
	b.Daemon.ProbeOnce()
	if done := b.Daemon.Step(); done {
		t.Fatal("feed exhausted on first step with Steps=2")
	}
	if !b.Daemon.ConvergedNow() {
		t.Fatalf("region not converged after first step: %+v", b.Daemon.Status())
	}

	dm, ok := b.Daemon.Demand()
	if !ok {
		t.Fatal("no demand aggregate after convergence")
	}
	if dm.Total <= 0 || dm.Pairs == 0 || dm.MaxPair <= 0 {
		t.Fatalf("demand aggregate empty: %+v", dm)
	}
	// The per-DC hose aggregates must sum to twice the total (each pair's
	// demand counts at both endpoints).
	var perDC float64
	for _, v := range dm.PerDC {
		perDC += v
	}
	if math.Abs(perDC-2*dm.Total) > 1e-9 {
		t.Fatalf("per-DC aggregates sum to %v, want 2*total = %v", perDC, 2*dm.Total)
	}

	// Steps=2 bounds the feed: the third step reports exhaustion.
	if done := b.Daemon.Step(); done {
		t.Fatal("feed exhausted on second step")
	}
	if done := b.Daemon.Step(); !done {
		t.Fatal("feed not exhausted after Steps=2")
	}

	// Everything landed on one instance-scoped registry.
	var sb strings.Builder
	if err := b.Registry.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"iris_daemon_steps_total", "iris_chaos_active_faults", "iris_flowsim_runs_total"} {
		if !strings.Contains(out, want) {
			t.Errorf("region registry missing %s", want)
		}
	}
}

// TestSharedRegistryPanics is the daemon-level half of the telemetry
// collision regression: wiring two region instances to one registry must
// fail loudly at construction, not silently alias their metrics. The
// panicking region's testbed is closed on the way out: once the panic is
// recovered none of its device servers is left running.
func TestSharedRegistryPanics(t *testing.T) {
	before := runtime.NumGoroutine()
	reg := telemetry.NewRegistry()
	cfg := daemon.DefaultRegionConfig()
	cfg.OSSDelay = 0
	cfg.Steps = 1
	cfg.TraceEvents = 0
	cfg.Registry = reg
	b, err := daemon.BuildRegion(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b.Close() // its metrics stay registered

	func() {
		defer func() {
			if recover() == nil {
				t.Error("second region on the same registry did not panic")
			}
		}()
		b2, err := daemon.BuildRegion(cfg)
		if err == nil {
			b2.Close()
		}
	}()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after the recovered panic, %d before the first region:\n%s", runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
		}
	}
}
