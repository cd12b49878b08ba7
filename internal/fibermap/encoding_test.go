package fibermap

import (
	"bytes"
	"strings"
	"testing"
)

func TestJSONRoundTrip(t *testing.T) {
	m := Generate(genConfig(5))
	if _, err := PlaceDCs(m, placeConfig(5, 4)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Nodes) != len(m.Nodes) || len(got.Ducts) != len(m.Ducts) {
		t.Fatalf("sizes differ: %d/%d nodes, %d/%d ducts",
			len(got.Nodes), len(m.Nodes), len(got.Ducts), len(m.Ducts))
	}
	for i := range m.Nodes {
		if got.Nodes[i] != m.Nodes[i] {
			t.Fatalf("node %d differs: %+v vs %+v", i, got.Nodes[i], m.Nodes[i])
		}
	}
	for i := range m.Ducts {
		if got.Ducts[i] != m.Ducts[i] {
			t.Fatalf("duct %d differs: %+v vs %+v", i, got.Ducts[i], m.Ducts[i])
		}
	}
}

func TestReadJSONErrors(t *testing.T) {
	cases := map[string]string{
		"not json":      `{{{`,
		"bad version":   `{"version":99,"nodes":[],"ducts":[]}`,
		"unknown kind":  `{"version":1,"nodes":[{"kind":"pop","x_km":0,"y_km":0,"name":"x"}],"ducts":[]}`,
		"bad endpoints": `{"version":1,"nodes":[{"kind":"hut","x_km":0,"y_km":0,"name":"a"}],"ducts":[{"a":0,"b":5,"fiber_km":1}]}`,
		"self loop":     `{"version":1,"nodes":[{"kind":"hut","x_km":0,"y_km":0,"name":"a"}],"ducts":[{"a":0,"b":0,"fiber_km":1}]}`,
		"bad length":    `{"version":1,"nodes":[{"kind":"hut","x_km":0,"y_km":0,"name":"a"},{"kind":"hut","x_km":1,"y_km":0,"name":"b"}],"ducts":[{"a":0,"b":1,"fiber_km":-2}]}`,
		"unknown field": `{"version":1,"nodes":[],"ducts":[],"extra":true}`,
		"disconnected":  `{"version":1,"nodes":[{"kind":"hut","x_km":0,"y_km":0,"name":"a"},{"kind":"hut","x_km":1,"y_km":0,"name":"b"}],"ducts":[]}`,
	}
	for name, doc := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := ReadJSON(strings.NewReader(doc)); err == nil {
				t.Error("expected error")
			}
		})
	}
}

func TestJSONToyStable(t *testing.T) {
	// The toy region's serialisation is a stable fixture other tools can
	// rely on; spot-check a few fields.
	var buf bytes.Buffer
	if err := fixtureToy().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	for _, want := range []string{`"version": 1`, `"name": "DC1"`, `"fiber_km": 40`} {
		if !strings.Contains(s, want) {
			t.Errorf("serialisation missing %q:\n%s", want, s)
		}
	}
}

func fixtureToy() *Map { return Toy().Map }
