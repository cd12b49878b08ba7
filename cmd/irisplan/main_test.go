package main

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"iris/internal/logging"
)

// TestExitCodes pins irisplan's exit statuses for its command line.
func TestExitCodes(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want int
	}{
		{[]string{"-h"}, 0},
		{[]string{"-nosuch"}, 2},
		{[]string{"-dcs", "many"}, 2},
		{[]string{"-log-level", "loud"}, 2},
		{[]string{"-seeds", "1", "-toy"}, 1},
		{[]string{"-seeds", "1,x"}, 1},
		{[]string{"-load", "no/such/region.json"}, 1},
	} {
		var stderr bytes.Buffer
		err := run(context.Background(), append([]string{"irisplan"}, tc.args...), &bytes.Buffer{}, &stderr)
		if got := logging.ExitCode(err); got != tc.want {
			t.Errorf("irisplan %v exits %d (%v), want %d", tc.args, got, err, tc.want)
		}
		if stderr.Len() == 0 {
			t.Errorf("irisplan %v wrote nothing to stderr", tc.args)
		}
	}
}

// TestSeedsIgnoreWorkers: planning several seeds prints the same bytes,
// in seed order, at every worker count.
func TestSeedsIgnoreWorkers(t *testing.T) {
	plan := func(workers string) string {
		t.Helper()
		var stdout, stderr bytes.Buffer
		if err := run(context.Background(), []string{"irisplan", "-seeds", "1,2,3", "-parallel", workers}, &stdout, &stderr); err != nil {
			t.Fatalf("-parallel %s: %v\n%s", workers, err, stderr.String())
		}
		return stdout.String()
	}
	serial, parallel := plan("1"), plan("4")
	if serial != parallel {
		t.Fatalf("-seeds 1,2,3 at -parallel 1 and 4 differ:\n%s\n---\n%s", serial, parallel)
	}
	if i, j := strings.Index(serial, "=== seed 1 ==="), strings.Index(serial, "=== seed 3 ==="); i < 0 || j < i {
		t.Fatalf("seeds not printed in order:\n%s", serial)
	}
}
