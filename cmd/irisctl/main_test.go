package main

import (
	"bytes"
	"context"
	"flag"
	"io"
	"slices"
	"strings"
	"testing"

	"iris/internal/daemon"
	"iris/internal/logging"
)

// TestExitCodes pins irisctl's exit statuses for its command line, and
// for a step the daemon cannot commit (demand above the region's hose
// capacity).
func TestExitCodes(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want int
	}{
		{[]string{"-h"}, 0},
		{[]string{"-nosuch"}, 2},
		{[]string{"-oss-delay", "soon"}, 2},
		{[]string{"-log-level", "loud"}, 2},
		{[]string{"-oss-delay", "0", "-util", "3"}, 1},
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

// commit is one history record as irisctl prints it: the phases it
// lists, in order, and its closing line.
type commit struct {
	phases  []string
	verdict string
}

// commits parses irisctl's stdout into its records.
func commits(out string) []commit {
	var cs []commit
	for _, block := range strings.Split(out, "\nrecord ")[1:] {
		lines := strings.Split(strings.TrimSpace(block), "\n")
		c := commit{verdict: strings.TrimSpace(lines[len(lines)-1])}
		for _, l := range lines {
			if f := strings.Fields(l); len(f) > 2 && f[2] == "devices" {
				c.phases = append(c.phases, f[0])
			}
		}
		cs = append(cs, c)
	}
	return cs
}

// checkCommits fails unless out holds n records, each the five §5.2
// phases in order and a passed audit.
func checkCommits(t *testing.T, out string, n int) {
	t.Helper()
	cs := commits(out)
	if len(cs) != n {
		t.Fatalf("%d records, want %d, in\n%s", len(cs), n, out)
	}
	want := []string{"drain", "switch", "amps", "retune", "undrain"}
	for i, c := range cs {
		if !slices.Equal(c.phases, want) || !strings.HasPrefix(c.verdict, "audit OK") {
			t.Errorf("record %d: phases %v and %q, want %v and a passed audit", i+1, c.phases, c.verdict, want)
		}
	}
}

// TestDemoAudits runs the demo on the toy region: the daemon commits its
// two seeded shifts, each a drained reconfiguration whose devices
// answered their writes with intent.
func TestDemoAudits(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run(context.Background(), []string{"irisctl", "-oss-delay", "0"}, &stdout, &stderr); err != nil {
		t.Fatalf("run = %v\n%s", err, stderr.String())
	}
	checkCommits(t, stdout.String(), 2)
}

// TestLogRecordsNameOneComponent: with -log-json every record irisctl and
// its daemon write carries "component" once, which a JSON decoder would
// otherwise resolve to whichever came last.
func TestLogRecordsNameOneComponent(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run(context.Background(), []string{"irisctl", "-oss-delay", "0", "-log-json"}, &stdout, &stderr); err != nil {
		t.Fatalf("run = %v\n%s", err, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stderr.String()), "\n")
	if lines[0] == "" {
		t.Fatal("irisctl logged nothing")
	}
	for _, l := range lines {
		if n := strings.Count(l, `"component"`); n != 1 {
			t.Errorf("%d component keys in %s", n, l)
		}
	}
}

// TestRegionFlagsReachTheRegion: the region flags irisctl takes are the
// daemon's, and they shape the region it builds and the steps it takes.
func TestRegionFlagsReachTheRegion(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"irisctl", "-toy=false", "-seed", "2", "-dcs", "8", "-oss-delay", "0", "-steps", "3"}
	if err := run(context.Background(), args, &stdout, &stderr); err != nil {
		t.Fatalf("run = %v\n%s", err, stderr.String())
	}
	if !strings.HasPrefix(stdout.String(), "planned region: 8 DCs,") {
		t.Fatalf("not the 8-DC region:\n%s", stdout.String())
	}
	checkCommits(t, stdout.String(), 3)
}

// TestFlagsAreTheDaemons: irisctl declares no flag of its own; -h lists
// exactly RegisterFlags' flags and the two log flags.
func TestFlagsAreTheDaemons(t *testing.T) {
	var stderr bytes.Buffer
	if err := run(context.Background(), []string{"irisctl", "-h"}, io.Discard, &stderr); logging.ExitCode(err) != 0 {
		t.Fatalf("irisctl -h = %v", err)
	}
	var got []string
	for _, l := range strings.Split(stderr.String(), "\n") {
		if name, ok := strings.CutPrefix(l, "  -"); ok {
			got = append(got, strings.Fields(name)[0])
		}
	}
	fs := flag.NewFlagSet("region", flag.ContinueOnError)
	cfg := daemon.DefaultRegionConfig()
	cfg.RegisterFlags(fs)
	want := []string{"log-json", "log-level"}
	fs.VisitAll(func(f *flag.Flag) { want = append(want, f.Name) })
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Errorf("irisctl -h lists %v, want %v", got, want)
	}
}

// TestCancelledDemoFails: a context ended before the first step, as
// SIGINT ends it, stops irisctl before any commit and exits 1.
func TestCancelledDemoFails(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var stdout, stderr bytes.Buffer
	err := run(ctx, []string{"irisctl", "-oss-delay", "0"}, &stdout, &stderr)
	if logging.ExitCode(err) != 1 || !strings.Contains(stderr.String(), "interrupted") {
		t.Fatalf("run = %v with stderr %q, want an interruption", err, stderr.String())
	}
	if cs := commits(stdout.String()); len(cs) != 0 {
		t.Errorf("an interrupted run printed %d records:\n%s", len(cs), stdout.String())
	}
}
