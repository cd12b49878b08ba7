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
	"iris/internal/daemon"
	"iris/internal/history"
	"iris/internal/logging"
)

// logBuffer is the stderr a running irisd writes its JSON logs to while
// the test reads them.
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

// irisd is one run of the binary in the background.
type irisd struct {
	t      *testing.T
	url    string
	stderr *logBuffer
	stop   context.CancelFunc
	done   chan error
}

// start runs irisd with args plus a JSON log on a free loopback port and
// waits until it serves.
func start(t *testing.T, args ...string) *irisd {
	t.Helper()
	ctx, stop := context.WithCancel(context.Background())
	d := &irisd{t: t, stderr: &logBuffer{}, stop: stop, done: make(chan error, 1)}
	args = append([]string{"irisd", "-listen", "127.0.0.1:0", "-log-json"}, args...)
	go func() { d.done <- run(ctx, args, &bytes.Buffer{}, d.stderr) }()
	t.Cleanup(func() {
		stop()
		<-d.done
	})
	waitFor(t, 10*time.Second, "http surface up", func() bool {
		select {
		case err := <-d.done:
			d.done <- err
			t.Fatalf("irisd exited before serving: %v\n%s", err, d.stderr.buf.String())
		default:
		}
		rec, ok := d.stderr.find(t, "http surface up")
		if ok {
			d.url = "http://" + rec["addr"].(string)
		}
		return ok
	})
	return d
}

// shutdown cancels run's context, as SIGINT does, and wants a clean exit.
func (d *irisd) shutdown() {
	d.t.Helper()
	d.stop()
	select {
	case err := <-d.done:
		d.done <- err
		if err != nil {
			d.t.Fatalf("run = %v after shutdown, want nil", err)
		}
	case <-time.After(10 * time.Second):
		d.t.Fatal("run did not return after shutdown")
	}
	if _, ok := d.stderr.find(d.t, "bye"); !ok {
		d.t.Error("no bye logged on shutdown")
	}
}

// do sends a request and decodes a JSON answer into out, returning the
// status code.
func (d *irisd) do(method, path string, out any) int {
	d.t.Helper()
	req, err := http.NewRequest(method, d.url+path, nil)
	if err != nil {
		d.t.Fatal(err)
	}
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		d.t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(res.Body)
		d.t.Logf("%s %s = %d: %s", method, path, res.StatusCode, body)
	} else if out != nil {
		if err := json.NewDecoder(res.Body).Decode(out); err != nil {
			d.t.Fatalf("%s %s: %v", method, path, err)
		}
	}
	return res.StatusCode
}

// series returns the metric names /metrics exposes.
func (d *irisd) series() []string {
	d.t.Helper()
	res, err := http.Get(d.url + "/metrics")
	if err != nil {
		d.t.Fatal(err)
	}
	defer res.Body.Close()
	var names []string
	sc := bufio.NewScanner(res.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		name, _, _ := strings.Cut(line, " ")
		name, _, _ = strings.Cut(name, "{")
		names = append(names, name)
	}
	return names
}

func (d *irisd) wantSeries(names ...string) {
	d.t.Helper()
	have := d.series()
	for _, name := range names {
		if !slices.Contains(have, name) {
			d.t.Errorf("/metrics has no %s series", name)
		}
	}
}

// TestExitCodes pins irisd's exit statuses for its command line.
func TestExitCodes(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want int
	}{
		{[]string{"-h"}, 0},
		{[]string{"-nosuch"}, 2},
		{[]string{"-steps", "many"}, 2},
		{[]string{"-log-level", "loud"}, 2},
	} {
		var stderr bytes.Buffer
		err := run(context.Background(), append([]string{"irisd"}, tc.args...), &bytes.Buffer{}, &stderr)
		if got := logging.ExitCode(err); got != tc.want {
			t.Errorf("irisd %v exits %d (%v), want %d", tc.args, got, err, tc.want)
		}
		if stderr.Len() == 0 {
			t.Errorf("irisd %v wrote nothing to stderr", tc.args)
		}
	}
}

// TestBusyListenFailsBeforeBringUp: an address already bound fails run
// before any device exists, with exit status 1.
func TestBusyListenFailsBeforeBringUp(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var stderr bytes.Buffer
	err = run(context.Background(), []string{"irisd", "-listen", ln.Addr().String()}, &bytes.Buffer{}, &stderr)
	if logging.ExitCode(err) != 1 {
		t.Fatalf("run on a bound address = %v, want a failure exiting 1", err)
	}
	if strings.Contains(stderr.String(), "region up") {
		t.Fatalf("the region came up before the listen failed:\n%s", stderr.String())
	}
}

// TestServesAChaosRegion runs irisd as the chaos, flow-load and load-shape
// flags arm it and drives its HTTP surface as an operator would: the
// region converges and reports a reconfiguration's flow impact, an
// injected cut restores itself on its timer while the loop runs and the
// region recovers, and a shutdown is clean.
func TestServesAChaosRegion(t *testing.T) {
	d := start(t, "-toy", "-chaos", "-interval", "25ms", "-probe-interval", "10ms", "-max-batch", "4",
		"-flow-load", "-flow-window", "1s", "-flow-gbps-per-wl", "0.02",
		"-diurnal-amp", "0.3", "-diurnal-period", "30s", "-flash-every", "10s", "-flash-dur", "2s")

	var st daemon.Status
	waitFor(t, 10*time.Second, "a reconfiguration with a flow impact", func() bool {
		st = daemon.Status{}
		return d.do("GET", "/status", &st) == http.StatusOK && st.LastReconfigID > 0 && st.FlowImpact != nil
	})
	if st.Chaos == nil {
		t.Error("/status has no chaos block under -chaos")
	}
	if st.FlowImpact.P999 < 1 {
		t.Errorf("flow_impact p999_slowdown = %v, want ≥ 1", st.FlowImpact.P999)
	}
	d.wantSeries("iris_flowsim_bytes_stranded_total")

	// A cut with an auto-restore: the injector restores it on its own
	// timer and the region recovers while the loop keeps running.
	var fault chaos.Fault
	if code := d.do("POST", "/debug/chaos?action=inject&kind=cut&duct=4&auto_restore=300ms", &fault); code != http.StatusOK || len(fault.Devices) == 0 {
		t.Fatalf("inject = %d %+v, want the devices the cut faults", code, fault)
	}
	var snap chaos.Status
	waitFor(t, 10*time.Second, "the region to recover from the cut", func() bool {
		snap = chaos.Status{}
		return d.do("GET", "/debug/chaos", &snap) == http.StatusOK && snap.ActiveFaults == 0 &&
			d.do("GET", "/healthz", nil) == http.StatusOK
	})
	if len(snap.History) != 1 || snap.History[0].Scenario.Name != "cut[4]" {
		t.Errorf("/debug/chaos history = %+v, want the restored cut[4]", snap.History)
	}
	st = daemon.Status{}
	if d.do("GET", "/status", &st); st.Chaos == nil || st.Chaos.Restores != 1 {
		t.Errorf("/status chaos = %+v, want one restore", st.Chaos)
	}

	d.shutdown()
}

// TestChaosCyclesBesideTheLoop posts chaos cycles to a running irisd one
// after another while its loop steps every 25 ms and probes every 10 ms.
// The cycle's replan and the loop's own repair write the same devices, so
// every cycle answers 200 only if they take turns; each answer's trace_id
// names the cycle's chaos-cycle record in the history lake.
func TestChaosCyclesBesideTheLoop(t *testing.T) {
	d := start(t, "-toy", "-chaos", "-interval", "25ms", "-probe-interval", "10ms")
	waitFor(t, 10*time.Second, "a first reconfiguration", func() bool {
		var st daemon.Status
		return d.do("GET", "/status", &st) == http.StatusOK && st.LastReconfigID > 0
	})
	failed := 0
	for i := range 15 {
		var res daemon.CycleResult
		if code := d.do("POST", "/debug/chaos/cycle?kind=cut&duct=4&timeout=10s", &res); code != http.StatusOK {
			t.Errorf("cycle %d = %d, want 200", i, code)
			failed++
			continue
		}
		var rec struct {
			Record history.Record `json:"record"`
		}
		if code := d.do("GET", fmt.Sprintf("/api/history/%d", res.TraceID), &rec); code != http.StatusOK || rec.Record.Trigger != history.TriggerChaos {
			t.Errorf("cycle %d: /api/history/%d = %d %q, want a %s record", i, res.TraceID, code, rec.Record.Trigger, history.TriggerChaos)
		}
	}
	if failed > 0 {
		t.Errorf("%d of 15 cycles failed", failed)
	}
	d.shutdown()
}

// TestServesARobustRegion runs irisd in METTEOR mode: the envelope
// absorbs shifts and is re-planned on an escape, and its block and gauges
// are served.
func TestServesARobustRegion(t *testing.T) {
	d := start(t, "-toy", "-robust", "-interval", "10ms", "-shift-bound", "0.2")
	var st daemon.Status
	waitFor(t, 10*time.Second, "an absorbed shift and an envelope escape", func() bool {
		st = daemon.Status{}
		return d.do("GET", "/status", &st) == http.StatusOK && st.Robust != nil &&
			st.Robust.InEnvelope > 0 && st.Robust.Escapes > 0
	})
	if !st.Robust.AllAdmissible {
		t.Errorf("robust block %+v, want all_admissible", st.Robust)
	}
	d.wantSeries("iris_robust_headroom_ratio", "iris_robust_overprovision_ratio")
	d.shutdown()
}
