package main

import (
	"bytes"
	"flag"
	"os"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden TestPrintsTheGolden reads")

// TestPrintsTheGolden: the example prints testdata/golden/example-regionplan.txt
// byte for byte. go test -run TestPrintsTheGolden -update rewrites it.
func TestPrintsTheGolden(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	const path = "../../testdata/golden/example-regionplan.txt"
	if *update {
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != string(want) {
		t.Fatalf("prints\n%s\nwant the golden\n%s", got, want)
	}
}
