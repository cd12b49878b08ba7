package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestReproducible: two runs print the same bytes, so the tie between
// the two busiest ducts goes the same way each time, and the tolerant
// plan passes all 1 771 scenarios of up to two cuts.
func TestReproducible(t *testing.T) {
	var first, second bytes.Buffer
	if err := run(&first); err != nil {
		t.Fatal(err)
	}
	if err := run(&second); err != nil {
		t.Fatal(err)
	}
	if first.String() != second.String() {
		t.Fatalf("two runs differ:\n%s\n---\n%s", first.String(), second.String())
	}
	if !strings.Contains(first.String(), "1771 failure scenarios of up to two cuts: tolerant plan admissible in 1771") {
		t.Fatalf("unexpected audit line in\n%s", first.String())
	}
}
