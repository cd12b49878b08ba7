package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"iris/internal/chaos"
	"iris/internal/fleet"
	"iris/internal/history"
	"iris/internal/logging"
)

// logBuffer is the stderr a running irisfleet writes its JSON logs to
// while the test reads them.
type logBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *logBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

// find returns the first complete JSON log record with message msg.
func (b *logBuffer) find(t *testing.T, msg string) (map[string]any, bool) {
	t.Helper()
	b.mu.Lock()
	defer b.mu.Unlock()
	sc := bufio.NewScanner(bytes.NewReader(b.buf.Bytes()))
	for sc.Scan() {
		var rec map[string]any
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("log line %q is not JSON: %v", sc.Text(), err)
		}
		if rec["msg"] == msg {
			return rec, true
		}
	}
	return nil, false
}

// waitFor polls cond every 10 ms until it holds, failing the test with
// what once the deadline passes.
func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out after %v waiting for %s", timeout, what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// do sends a request to the fleet at url and decodes a JSON answer into
// out, returning the status code.
func do(t *testing.T, method, url string, out any) int {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(res.Body)
		t.Logf("%s %s = %d: %s", method, url, res.StatusCode, body)
	} else if out != nil {
		if err := json.NewDecoder(res.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: %v", method, url, err)
		}
	}
	return res.StatusCode
}

// series returns the metric names, each with its labels, that a
// Prometheus text exposition at url holds.
func series(t *testing.T, url string) []string {
	t.Helper()
	res, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var names []string
	sc := bufio.NewScanner(res.Body)
	for sc.Scan() {
		if line := sc.Text(); line != "" && line[0] != '#' {
			name, _, _ := strings.Cut(line, " ")
			names = append(names, name)
		}
	}
	return names
}

// TestExitCodes pins irisfleet's exit statuses for its command line.
func TestExitCodes(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want int
	}{
		{[]string{"-h"}, 0},
		{[]string{"-nosuch"}, 2},
		{[]string{"-regions", "many"}, 2},
		{[]string{"-log-level", "loud"}, 2},
	} {
		var stderr bytes.Buffer
		err := run(context.Background(), append([]string{"irisfleet"}, tc.args...), &bytes.Buffer{}, &stderr)
		if got := logging.ExitCode(err); got != tc.want {
			t.Errorf("irisfleet %v exits %d (%v), want %d", tc.args, got, err, tc.want)
		}
		if stderr.Len() == 0 {
			t.Errorf("irisfleet %v wrote nothing to stderr", tc.args)
		}
	}
}

// TestBusyListenFailsBeforeBringUp: an address already bound fails run
// before any region is built, with exit status 1.
func TestBusyListenFailsBeforeBringUp(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var stderr bytes.Buffer
	err = run(context.Background(), []string{"irisfleet", "-listen", ln.Addr().String()}, &bytes.Buffer{}, &stderr)
	if logging.ExitCode(err) != 1 {
		t.Fatalf("run on a bound address = %v, want a failure exiting 1", err)
	}
	if strings.Contains(stderr.String(), "fleet up") {
		t.Fatalf("the fleet came up before the listen failed:\n%s", stderr.String())
	}
}

// TestServesAFleet runs a chaos-armed fleet and drives its aggregated
// surface: every region converges and is rolled up on /metrics, /demand
// and /api/history; the proxy reaches a region's own surface; a cut
// injected through the proxy restores itself without the fleet losing a
// region; a storm's trace ID names its record in the region's lake; and a
// shutdown is clean. -max-batch is a region flag irisfleet takes through
// irisd's RegionConfig.RegisterFlags.
func TestServesAFleet(t *testing.T) {
	const n = 4
	ctx, stop := context.WithCancel(context.Background())
	defer stop()
	stderr := &logBuffer{}
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"irisfleet", "-listen", "127.0.0.1:0", "-log-json",
			"-regions", fmt.Sprint(n), "-chaos", "-interval", "25ms", "-probe-interval", "10ms", "-max-batch", "2"},
			&bytes.Buffer{}, stderr)
	}()
	var url string
	waitFor(t, 20*time.Second, "http surface up", func() bool {
		rec, ok := stderr.find(t, "fleet http surface up")
		if ok {
			url = "http://" + rec["addr"].(string)
		}
		return ok
	})

	var st fleet.Status
	waitFor(t, 10*time.Second, "every region to converge", func() bool {
		st = fleet.Status{}
		return do(t, "GET", url+"/status", &st) == http.StatusOK && st.Converged == n
	})
	have := series(t, url+"/metrics")
	for _, want := range []string{"iris_fleet_regions_converged", "iris_fleet_region_steps_total"} {
		if !slices.Contains(have, want) {
			t.Errorf("fleet /metrics has no %s", want)
		}
	}
	var demand struct {
		Skew fleet.SkewReport `json:"skew"`
	}
	if do(t, "GET", url+"/demand", &demand); demand.Skew.Regions != n {
		t.Errorf("/demand skew covers %d regions, want %d", demand.Skew.Regions, n)
	}
	if !slices.ContainsFunc(series(t, url+"/regions/r001/metrics"), func(s string) bool {
		return strings.HasPrefix(s, "iris_daemon_steps_total")
	}) {
		t.Error("the proxy does not reach r001's own /metrics")
	}
	var rows []struct {
		Region  string            `json:"region"`
		Enabled bool              `json:"enabled"`
		Records []history.Summary `json:"records"`
	}
	if do(t, "GET", url+"/api/history?n=5", &rows); len(rows) != n || rows[0].Region != "r000" || !rows[0].Enabled || len(rows[0].Records) == 0 {
		t.Errorf("fleet /api/history = %+v, want %d enabled regions from r000 with records", rows, n)
	}
	var listing struct {
		Records []history.Summary `json:"records"`
	}
	do(t, "GET", url+"/regions/r001/api/history", &listing)
	if !slices.ContainsFunc(listing.Records, func(s history.Summary) bool { return s.Trigger == history.TriggerConverge }) {
		t.Errorf("r001's own lake has no converge record: %+v", listing.Records)
	}

	// A cut injected into r002 through the proxy restores itself, and the
	// whole fleet is healthy again.
	var fault chaos.Fault
	if code := do(t, "POST", url+"/regions/r002/debug/chaos?action=inject&kind=cut&duct=4&auto_restore=300ms", &fault); code != http.StatusOK || len(fault.Devices) == 0 {
		t.Fatalf("inject through the proxy = %d %+v", code, fault)
	}
	waitFor(t, 10*time.Second, "r002 to recover from the cut", func() bool {
		var snap chaos.Status
		return do(t, "GET", url+"/regions/r002/debug/chaos", &snap) == http.StatusOK && snap.ActiveFaults == 0 && snap.Restores == 1 &&
			do(t, "GET", url+"/healthz", nil) == http.StatusOK
	})
	st = fleet.Status{}
	if do(t, "GET", url+"/status", &st); st.Healthy != n {
		t.Errorf("%d of %d regions healthy after the recovery", st.Healthy, n)
	}

	// A storm on r003: its trace ID names the chaos-cycle record in the
	// region's own lake. A storm skips a region a scheduler round is
	// stepping, so a busy answer is asked again.
	var storm []fleet.StormOutcome
	waitFor(t, 10*time.Second, "a storm on an idle r003", func() bool {
		storm = nil
		return do(t, "POST", url+"/chaos?region=r003&seed=7&timeout=60s", &storm) == http.StatusOK &&
			len(storm) == 1 && !strings.HasSuffix(storm[0].Error, "is busy")
	})
	if storm[0].Result == nil || storm[0].Result.TraceID == 0 {
		t.Fatalf("storm = %+v, want one cycle with a trace ID", storm)
	}
	var rec struct {
		Record history.Record `json:"record"`
	}
	do(t, "GET", fmt.Sprintf("%s/regions/r003/api/history/%d", url, storm[0].Result.TraceID), &rec)
	if rec.Record.Trigger != history.TriggerChaos {
		t.Errorf("r003 record %d = %q, want a chaos cycle", storm[0].Result.TraceID, rec.Record.Trigger)
	}

	stop()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run = %v after shutdown, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not return after shutdown")
	}
	if _, ok := stderr.find(t, "bye"); !ok {
		t.Error("no bye logged on shutdown")
	}
}
