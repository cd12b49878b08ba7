package main

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"iris/internal/logging"
)

// TestExitCodes pins irisctl's exit statuses for its command line.
func TestExitCodes(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want int
	}{
		{[]string{"-h"}, 0},
		{[]string{"-nosuch"}, 2},
		{[]string{"-oss-delay", "soon"}, 2},
		{[]string{"-log-level", "loud"}, 2},
	} {
		var stderr bytes.Buffer
		err := run(context.Background(), append([]string{"irisctl"}, tc.args...), &bytes.Buffer{}, &stderr)
		if got := logging.ExitCode(err); got != tc.want {
			t.Errorf("irisctl %v exits %d (%v), want %d", tc.args, got, err, tc.want)
		}
		if stderr.Len() == 0 {
			t.Errorf("irisctl %v wrote nothing to stderr", tc.args)
		}
	}
}

// TestDemoAudits runs the whole demo on the toy region: two drained
// reconfigurations whose device state matches intent.
func TestDemoAudits(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run(context.Background(), []string{"irisctl", "-oss-delay", "0"}, &stdout, &stderr); err != nil {
		t.Fatalf("run = %v\n%s", err, stderr.String())
	}
	if !strings.Contains(stdout.String(), "audit OK") {
		t.Fatalf("no audit verdict in\n%s", stdout.String())
	}
}

// TestCancelledDemoFails: a context ended before the first change, as
// SIGINT ends it, fails the reconfiguration and exits 1.
func TestCancelledDemoFails(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var stderr bytes.Buffer
	err := run(ctx, []string{"irisctl", "-oss-delay", "0"}, &bytes.Buffer{}, &stderr)
	if logging.ExitCode(err) != 1 || !strings.Contains(stderr.String(), "reconfiguration failed") {
		t.Fatalf("run = %v with stderr %q, want a failed reconfiguration", err, stderr.String())
	}
}
