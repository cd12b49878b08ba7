package main

import (
	"bytes"
	"context"
	"flag"
	"os"
	"regexp"
	"testing"

	"iris/internal/logging"
)

// timing matches a line that reports how long something took — the one
// part of irisbench's output that differs between runs — and a blank line.
var timing = regexp.MustCompile(`(?m)^(\[.* in [0-9.]+[a-zµ]+\])?\n`)

// output runs irisbench with args and returns its stdout without timing
// lines.
func output(t *testing.T, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if err := run(context.Background(), append([]string{"irisbench"}, args...), &stdout, &stderr); err != nil {
		t.Fatalf("irisbench %v: %v\n%s", args, err, stderr.String())
	}
	return timing.ReplaceAllString(stdout.String(), "")
}

// TestExitCodes pins irisbench's exit statuses for its command line.
func TestExitCodes(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want int
	}{
		{[]string{"-h"}, 0},
		{[]string{"-nosuch"}, 2},
		{[]string{"-parallel", "many"}, 2},
		{[]string{"-log-level", "loud"}, 2},
		{[]string{"-exp", "nosuch"}, 1},
	} {
		var stderr bytes.Buffer
		err := run(context.Background(), append([]string{"irisbench"}, tc.args...), &bytes.Buffer{}, &stderr)
		if got := logging.ExitCode(err); got != tc.want {
			t.Errorf("irisbench %v exits %d (%v), want %d", tc.args, got, err, tc.want)
		}
		if stderr.Len() == 0 {
			t.Errorf("irisbench %v wrote nothing to stderr", tc.args)
		}
	}
}

// TestWSSIsReproducible: two runs of -exp wss in one process print the
// same bytes. Its greedy colouring once followed map iteration order.
func TestWSSIsReproducible(t *testing.T) {
	if a, b := output(t, "-exp", "wss"), output(t, "-exp", "wss"); a != b {
		t.Fatalf("two runs of -exp wss differ:\n%s\n---\n%s", a, b)
	}
}

var update = flag.Bool("update", false, "rewrite every golden TestPrintsTheGolden reads")

// TestPrintsTheGolden: each entry prints its golden under testdata/golden
// byte for byte, timing lines aside. The robust golden is also the one
// TestRobustAblationChurnTrade holds the library call to; fig5 and fig6
// are the byte-identity proof for any change to siting or placement.
// go test -run TestPrintsTheGolden -update rewrites every row.
func TestPrintsTheGolden(t *testing.T) {
	for _, exp := range []string{"robust", "fig5", "fig6"} {
		t.Run(exp, func(t *testing.T) {
			path := "../../testdata/golden/irisbench-" + exp + ".txt"
			got := output(t, "-exp", exp)
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Fatalf("-exp %s prints\n%s\nwant the golden\n%s", exp, got, want)
			}
		})
	}
}

// TestSweepRowsIgnoreWorkers: the sweep's rows are the same at every
// worker count.
func TestSweepRowsIgnoreWorkers(t *testing.T) {
	if a, b := output(t, "-exp", "sweep", "-parallel", "1"), output(t, "-exp", "sweep", "-parallel", "4"); a != b {
		t.Fatalf("-exp sweep at -parallel 1 and 4 differ:\n%s\n---\n%s", a, b)
	}
}
