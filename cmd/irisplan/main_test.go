package main

import (
	"bytes"
	"context"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"iris/internal/daemon"
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

// TestToyTakesCapacity: -capacity sizes the toy's DCs as it sizes a
// generated region's.
func TestToyTakesCapacity(t *testing.T) {
	plan := func(args ...string) string {
		t.Helper()
		var stdout, stderr bytes.Buffer
		if err := run(context.Background(), append([]string{"irisplan", "-toy"}, args...), &stdout, &stderr); err != nil {
			t.Fatalf("irisplan -toy %v: %v\n%s", args, err, stderr.String())
		}
		return stdout.String()
	}
	if def, ten, sixteen := plan(), plan("-capacity", "10"), plan("-capacity", "16"); def != ten || ten == sixteen {
		t.Fatalf("-toy prints\n%s\n-toy -capacity 16 prints\n%s\nwant the default to be -capacity 10 and the two to differ", def, sixteen)
	}
}

// TestOneSeedOneRegion: the map irisplan -seed N -dcs 20 plans is, byte
// for byte, the one daemon.BuildRegion brings up for seed N and 20 DCs.
func TestOneSeedOneRegion(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		path := filepath.Join(t.TempDir(), "region.json")
		args := []string{"irisplan", "-seed", strconv.FormatInt(seed, 10), "-dcs", "20", "-failures", "0", "-save", path}
		var stderr bytes.Buffer
		if err := run(context.Background(), args, io.Discard, &stderr); err != nil {
			t.Fatalf("%v: %v\n%s", args, err, stderr.String())
		}
		planned, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}

		rc := daemon.DefaultRegionConfig()
		rc.Toy, rc.Seed, rc.DCs = false, seed, 20
		b, err := daemon.BuildRegion(rc)
		if err != nil {
			t.Fatal(err)
		}
		var brought bytes.Buffer
		err = b.Rig.Dep.Region.Map.WriteJSON(&brought)
		b.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(planned, brought.Bytes()) {
			t.Errorf("seed %d: irisplan's map differs from BuildRegion's", seed)
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
		{"toy-v", []string{"-toy", "-v"}},
		{"seed1-dcs20-f0-v", []string{"-seed", "1", "-dcs", "20", "-failures", "0", "-v"}},
		{"seed1-dcs20-f1-v", []string{"-seed", "1", "-dcs", "20", "-failures", "1", "-v"}},
		{"seed1-dcs20-f2-v", []string{"-seed", "1", "-dcs", "20", "-failures", "2", "-v"}},
		{"seeds-1-2-3", []string{"-seeds", "1,2,3"}},
		{"seed6-dcs20-f3", []string{"-seed", "6", "-dcs", "20", "-failures", "3"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if err := run(context.Background(), append([]string{"irisplan"}, tc.args...), &stdout, &stderr); err != nil {
				t.Fatalf("irisplan %v: %v\n%s", tc.args, err, stderr.String())
			}
			path := "../../testdata/golden/irisplan-" + tc.name + ".txt"
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
				t.Fatalf("irisplan %v prints\n%s\nwant the golden\n%s", tc.args, got, want)
			}
		})
	}
}
