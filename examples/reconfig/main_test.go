package main

import (
	"bytes"
	"regexp"
	"strings"
	"testing"
)

// phaseLine is a phase's line: its name and its duration.
var phaseLine = regexp.MustCompile(`(?m)^  ([a-z]+) +[0-9.]+[µmn]?s$`)

// TestPrintsTheSequence: the reconfiguration reports the five §5.2 phases
// in order and passes its audit, and the seeded Fig. 14 lines are fixed.
// Phase and total durations are wall clock, so only their names are held.
func TestPrintsTheSequence(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	var phases []string
	for _, m := range phaseLine.FindAllStringSubmatch(out.String(), -1) {
		phases = append(phases, m[1])
	}
	if got, want := strings.Join(phases, " "), "drain switch amps retune undrain"; got != want {
		t.Errorf("phases %q, want %q in\n%s", got, want, out.String())
	}
	for _, want := range []string{
		"\naudit OK\n",
		"\n  max pre-FEC BER 7.61e-03 (soft-FEC threshold 2e-02)\n",
		"\n  signal loss 110 ms total across 2 switches (paper: ~50 ms each)\n",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}
