package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// benchmarkFile mirrors the parts of ../BENCHMARK.json the tests compare
// the program against.
type benchmarkFile struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// smokeOps is each workload at roughly a hundredth of a benchmark run.
var smokeOps = map[string]int{
	"tick-dense": 4, "tick-sparse": 24, "tick-read": 12,
	"api-mix": 3, "plan-audit": 1, "fleet-round": 3,
}

func smokeConfig(name string, traced bool) runConfig {
	cfg := runConfig{seed: 1, budget: budget{ops: smokeOps[name]}, warm: 1, setups: 1}
	if traced {
		cfg.rec = newRecorder()
	}
	return cfg
}

func TestCatalogueMatchesBenchmarkFile(t *testing.T) {
	b := loadBenchmarkFile(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the program %q", i, w.Name, workloads[i].name)
		}
		if _, ok := smokeOps[w.Name]; !ok {
			t.Errorf("workload %q has no smoke length", w.Name)
		}
	}
	same := func(kind string, file []struct{ Name, Unit string }, cat []metric) {
		if len(file) != len(cat) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(file), len(cat))
		}
		for i, m := range file {
			if m.Name != cat[i].name || m.Unit != cat[i].unit {
				t.Errorf("%s metric %d: BENCHMARK.json says %s (%s), the program %s (%s)",
					kind, i, m.Name, m.Unit, cat[i].name, cat[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
}

// TestSmoke runs every workload, untraced and traced, at about a
// hundredth of its length, so tier-1 keeps the harness compiling and
// passing its own output checks as internal/* moves.
func TestSmoke(t *testing.T) {
	everSet := make(map[string]bool)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := smokeConfig(w.name, traced)
			res, err := runOne(w, cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if res.failed != 0 || res.attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d operations failed: %v", w.name, traced, res.failed, res.attempted, res.reasons)
			}
			cat := catalogue(traced)
			line := res.line(cat)
			if !line.Correct || len(line.Metrics) != len(cat) {
				t.Errorf("%s traced=%v: result line %+v", w.name, traced, line)
			}
			for _, m := range cat {
				v := res.values[m.name]
				if v != 0 {
					everSet[m.name] = true
				}
				if !traced && !(v > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, m.name, v)
				}
			}
			if traced {
				if len(cfg.rec.spans) == 0 {
					t.Errorf("%s: traced run recorded no spans", w.name)
				}
				if err := cfg.rec.writeTo(filepath.Join(t.TempDir(), "spans.jsonl")); err != nil {
					t.Errorf("%s: %v", w.name, err)
				}
				if res.values["trace.overhead_ratio"] <= 0 {
					t.Errorf("%s: trace.overhead_ratio not reported", w.name)
				}
			}
		}
	}
	// A per-layer metric no workload ever moves is a dead catalogue entry.
	// Failure and waste counters are legitimately 0 on a healthy run.
	zeroOK := map[string]bool{"control.errors": true, "chaos.inadmissible": true, "daemon.noop_ticks": true}
	for _, m := range perLayer {
		if !everSet[m.name] && !zeroOK[m.name] {
			t.Errorf("per-layer metric %s was 0 on every workload", m.name)
		}
	}
}

// TestCountsRepeatExactly: counts made at layer boundaries are inputs to
// later claims only if one seed always yields the same counts.
func TestCountsRepeatExactly(t *testing.T) {
	for name, counts := range map[string][]string{
		"tick-sparse": {"control.ops", "fabric.change_ops", "core.pairs_resolved", "traffic.pairs_changed", "control.rpcs"},
		"plan-audit":  {"chaos.scenarios", "graph.scenarios_k2"},
	} {
		w, _ := findWorkload(name)
		a, err := runOne(w, smokeConfig(name, true))
		if err != nil {
			t.Fatal(err)
		}
		b, err := runOne(w, smokeConfig(name, true))
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range counts {
			if a.values[c] != b.values[c] || a.values[c] == 0 {
				t.Errorf("%s: %s = %v then %v on the same seed", name, c, a.values[c], b.values[c])
			}
		}
	}
}
