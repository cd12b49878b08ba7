package logging

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"strings"
	"testing"
)

func TestLevelsAndComponent(t *testing.T) {
	var buf bytes.Buffer
	log, err := newLogger(&buf, "warn", false, "testd")
	if err != nil {
		t.Fatal(err)
	}
	log.Info("hidden")
	log.Warn("shown", "k", "v")
	out := buf.String()
	if strings.Contains(out, "hidden") {
		t.Errorf("info line leaked through warn level: %q", out)
	}
	if !strings.Contains(out, "shown") || !strings.Contains(out, "component=testd") {
		t.Errorf("warn line missing message or component: %q", out)
	}
}

func TestJSONFormat(t *testing.T) {
	var buf bytes.Buffer
	log, err := newLogger(&buf, "", true, "irisd") // "" defaults to info
	if err != nil {
		t.Fatal(err)
	}
	log.Info("converged", "reconfig_id", 7)
	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("not JSON: %v\n%s", err, buf.String())
	}
	if rec["msg"] != "converged" || rec["component"] != "irisd" || rec["reconfig_id"] != float64(7) {
		t.Errorf("unexpected record: %v", rec)
	}
}

func TestBadLevel(t *testing.T) {
	if _, err := newLogger(&bytes.Buffer{}, "loud", false, "x"); err == nil {
		t.Fatal("bad level accepted")
	}
	for _, lv := range []string{"debug", "Info", "WARN", "warning", "error"} {
		if _, err := newLogger(&bytes.Buffer{}, lv, false, "x"); err != nil {
			t.Errorf("level %q rejected: %v", lv, err)
		}
	}
}

// TestParse: the pair Parse declares picks the level and format of the
// logger it builds; a flag the set does not know and an unknown
// level are both a bad command line, reported on the writer and exiting
// 2, and -h exits 0.
func TestParse(t *testing.T) {
	for _, tc := range []struct {
		args []string
		exit int
		json bool
	}{
		{nil, 0, false},
		{[]string{"-log-level", "debug", "-log-json"}, 0, true},
		{[]string{"-h"}, 0, false},
		{[]string{"-nosuch"}, 2, false},
		{[]string{"-log-level", "loud"}, 2, false},
	} {
		var buf bytes.Buffer
		log, err := Parse(flag.NewFlagSet("x", flag.ContinueOnError), tc.args, &buf, "testd")
		if got := ExitCode(err); got != tc.exit {
			t.Errorf("%v: exit %d (%v), want %d", tc.args, got, err, tc.exit)
		}
		if err != nil {
			if buf.Len() == 0 {
				t.Errorf("%v: %v reported nothing", tc.args, err)
			}
			continue
		}
		log.Debug("detail")
		log.Info("shown")
		out := buf.String()
		if strings.Contains(out, "detail") != (len(tc.args) > 0) || !strings.Contains(out, "testd") ||
			json.Valid([]byte(strings.SplitN(out, "\n", 2)[0])) != tc.json {
			t.Errorf("%v: logged %q", tc.args, out)
		}
	}
	for err, want := range map[error]int{nil: 0, flag.ErrHelp: 0, errors.New("bring-up failed"): 1} {
		if got := ExitCode(err); got != want {
			t.Errorf("ExitCode(%v) = %d, want %d", err, got, want)
		}
	}
}
