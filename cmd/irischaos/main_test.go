package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"strings"
	"testing"

	"iris/internal/chaos"
)

// TestExitCodes pins irischaos's exit statuses: a bad input exits 2 and
// -assert exits 1 on the first scenario that is not hose admissible.
func TestExitCodes(t *testing.T) {
	for _, tc := range []struct {
		args   []string
		want   int
		stderr string
	}{
		{[]string{"-h"}, 0, "Usage"},
		{[]string{"-nosuch"}, 2, "-nosuch"},
		{[]string{"-toy", "-format", "xml"}, 2, `unknown format "xml"`},
		{[]string{"-toy", "-mode", "meteor"}, 2, `unknown mode "meteor"`},
		{[]string{"-toy", "-mode", "amps"}, 2, "generated no scenarios"},
		{[]string{"-toy", "-failures", "2", "-cuts", "1", "-assert"}, 0, ""},
		{[]string{"-dcs", "4", "-failures", "0", "-cuts", "2", "-assert"}, 1, `scenario "cut[0 25]" is not hose admissible`},
	} {
		var stderr bytes.Buffer
		err := run(context.Background(), append([]string{"irischaos"}, tc.args...), &bytes.Buffer{}, &stderr)
		if got := exitCode(err); got != tc.want {
			t.Errorf("irischaos %v exits %d (%v), want %d", tc.args, got, err, tc.want)
		}
		if !strings.Contains(stderr.String(), tc.stderr) || tc.stderr == "" && stderr.Len() > 0 {
			t.Errorf("irischaos %v wrote %q to stderr, want %q", tc.args, stderr.String(), tc.stderr)
		}
	}
}

// TestToyPlanSurvivesEveryCut is the planner's k-failure guarantee
// through the binary: a plan that tolerates two cuts is hose admissible
// under the toy region's failure-free scenario and each of its five
// single cuts.
func TestToyPlanSurvivesEveryCut(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run(context.Background(), []string{"irischaos", "-toy", "-failures", "2", "-cuts", "1", "-assert", "-format", "json"}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("run = %v\n%s", err, stderr.String())
	}
	var results []chaos.Result
	if err := json.Unmarshal(stdout.Bytes(), &results); err != nil {
		t.Fatal(err)
	}
	if len(results) != 6 {
		t.Fatalf("%d scenarios audited, want 6", len(results))
	}
	for _, r := range results {
		if !r.Admissible {
			t.Errorf("scenario %s is not hose admissible", r.Scenario.Name)
		}
	}
}

var update = flag.Bool("update", false, "rewrite every golden TestPrintsTheGolden reads")

// TestPrintsTheGolden: each row prints its golden under testdata/golden
// byte for byte. go test -run TestPrintsTheGolden -update rewrites every
// row.
func TestPrintsTheGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"default", nil},
		{"json", []string{"-format", "json"}},
		{"geo", []string{"-mode", "geo"}},
		{"huts", []string{"-mode", "huts"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if err := run(context.Background(), append([]string{"irischaos"}, tc.args...), &stdout, &stderr); err != nil {
				t.Fatalf("irischaos %v: %v\n%s", tc.args, err, stderr.String())
			}
			path := "../../testdata/golden/irischaos-" + tc.name + ".txt"
			if *update {
				if err := os.WriteFile(path, stdout.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got := stdout.String(); got != string(want) {
				t.Fatalf("irischaos %v prints\n%s\nwant the golden\n%s", tc.args, got, want)
			}
		})
	}
}
