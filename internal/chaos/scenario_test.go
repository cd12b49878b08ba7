package chaos

import (
	"net/url"
	"reflect"
	"strings"
	"testing"

	"iris/internal/core"
	"iris/internal/fibermap"
)

func toyRegion(t *testing.T, failures int) (*fibermap.ToyRegion, *core.Deployment) {
	t.Helper()
	toy := fibermap.Toy()
	caps := make(map[int]int)
	for _, dc := range toy.Map.DCs() {
		caps[dc] = 10
	}
	dep, err := core.Plan(
		core.Region{Map: toy.Map, Capacity: caps, Lambda: 40},
		core.Options{MaxFailures: failures},
	)
	if err != nil {
		t.Fatal(err)
	}
	return toy, dep
}

func TestKindRoundTrip(t *testing.T) {
	for _, k := range []Kind{ductCut, hutLoss, ampFailure, dcLoss, geoEvent} {
		got, err := kindFromString(k.String())
		if err != nil || got != k {
			t.Errorf("KindFromString(%q) = %v, %v; want %v", k, got, err, k)
		}
	}
	if _, err := kindFromString("meteor"); err == nil {
		t.Error("KindFromString accepted an unknown kind")
	}
}

// TestCutNamesEachDuctOnce: however a cut is spelled — repeated IDs, any
// order, query or compact form — it is one scenario severing each duct
// once, so a request cannot inflate a scenario by repeating an ID.
func TestCutNamesEachDuctOnce(t *testing.T) {
	toy, _ := toyRegion(t, 0)
	want := Cut(1, 3)
	if want.Name != "cut[1 3]" || !reflect.DeepEqual(want.Ducts, []int{1, 3}) {
		t.Fatalf("Cut(1, 3) = %q %v", want.Name, want.Ducts)
	}
	if got := Cut(3, 1, 3, 3, 1); !reflect.DeepEqual(got, want) {
		t.Errorf("Cut(3, 1, 3, 3, 1) = %q %v, want %q", got.Name, got.Ducts, want.Name)
	}
	parsed, err := ParseScenario(toy.Map, "cut:3,1,1")
	if err != nil || !reflect.DeepEqual(parsed, want) {
		t.Errorf("ParseScenario(cut:3,1,1) = %q %v, %v; want %q", parsed.Name, parsed.Ducts, err, want.Name)
	}
	queried, err := ScenarioFromQuery(toy.Map, url.Values{"kind": {"cut"}, "duct": {"3", "3", "1"}})
	if err != nil || !reflect.DeepEqual(queried, want) {
		t.Errorf("ScenarioFromQuery(duct=3&duct=3&duct=1) = %q %v, %v; want %q", queried.Name, queried.Ducts, err, want.Name)
	}
}

// TestGeoRejectsNonFinite: "NaN" and "Inf" parse as floats, but a scenario
// carrying them cannot be encoded as JSON — /api/whatif answered 200 with
// an empty body.
func TestGeoRejectsNonFinite(t *testing.T) {
	toy, _ := toyRegion(t, 0)
	for _, spec := range []string{"geo:NaN,0,1", "geo:0,Inf,1", "geo:0,0,Inf", "geo:0,0,NaN", "geo:0,0,-1"} {
		if sc, err := ParseScenario(toy.Map, spec); err == nil {
			t.Errorf("ParseScenario(%q) accepted: %q", spec, sc.Name)
		}
	}
	if _, err := ParseScenario(toy.Map, "geo:0,0,1e9"); err != nil {
		t.Errorf("a large finite radius rejected: %v", err)
	}
}

// TestSiteScenarioChecksNodeKind: a hut scenario is on a hut and a DC
// scenario on a DC. The parser checked the node's range only, so "dc:0"
// was a DC loss named after hut H1 and "hut:2" a hut loss named after
// DC1.
func TestSiteScenarioChecksNodeKind(t *testing.T) {
	toy := fibermap.Toy()
	for spec, kind := range map[string]string{"dc:0": "a hut", "hut:2": "a dc"} {
		sc, err := ParseScenario(toy.Map, spec)
		if err == nil {
			t.Errorf("ParseScenario(%q) accepted: %q", spec, sc.Name)
		} else if !strings.Contains(err.Error(), kind) {
			t.Errorf("ParseScenario(%q): %v; want the error to name the node %s", spec, err, kind)
		}
	}
	for spec, name := range map[string]string{"hut:0": "hut H1", "dc:2": "dc DC1", "amp:2": "amp DC1"} {
		if sc, err := ParseScenario(toy.Map, spec); err != nil || sc.Name != name {
			t.Errorf("ParseScenario(%q) = %q, %v; want %q", spec, sc.Name, err, name)
		}
	}
}

func TestEnumerateCuts(t *testing.T) {
	toy, _ := toyRegion(t, 0)
	scs := EnumerateCuts(toy.Map, 2)
	// C(5,0) + C(5,1) + C(5,2) over the toy's five ducts.
	if len(scs) != 1+5+10 {
		t.Fatalf("enumerated %d scenarios, want 16", len(scs))
	}
	if scs[0].CutCount() != 0 {
		t.Fatalf("first scenario severs %v, want the empty baseline", scs[0].Ducts)
	}
	seen := make(map[string]bool)
	sizes := make(map[int]int)
	for _, sc := range scs {
		if sc.Kind != ductCut {
			t.Fatalf("scenario %q has kind %v, want DuctCut", sc.Name, sc.Kind)
		}
		if seen[sc.Name] {
			t.Fatalf("duplicate scenario %q", sc.Name)
		}
		seen[sc.Name] = true
		sizes[sc.CutCount()]++
	}
	if sizes[0] != 1 || sizes[1] != 5 || sizes[2] != 10 {
		t.Fatalf("size distribution %v, want 1/5/10", sizes)
	}
	// Enumeration is deterministic.
	if again := EnumerateCuts(toy.Map, 2); !reflect.DeepEqual(scs, again) {
		t.Fatal("EnumerateCuts is not deterministic")
	}
}

func TestSampleCuts(t *testing.T) {
	toy, _ := toyRegion(t, 0)
	scs := SampleCuts(42, toy.Map, 2, 6)
	if len(scs) != 6 {
		t.Fatalf("sampled %d scenarios, want 6", len(scs))
	}
	seen := make(map[string]bool)
	for _, sc := range scs {
		if sc.CutCount() != 2 {
			t.Fatalf("sampled scenario %q severs %d ducts, want 2", sc.Name, sc.CutCount())
		}
		if seen[sc.Name] {
			t.Fatalf("sampled duplicate %q", sc.Name)
		}
		seen[sc.Name] = true
	}
	if again := SampleCuts(42, toy.Map, 2, 6); !reflect.DeepEqual(scs, again) {
		t.Fatal("SampleCuts is not deterministic for a fixed seed")
	}
	// Requesting more than the space holds clamps to the space: C(5,2)=10.
	if all := SampleCuts(7, toy.Map, 2, 100); len(all) != 10 {
		t.Fatalf("oversampling returned %d scenarios, want the full space of 10", len(all))
	}
}

func TestSiteScenarios(t *testing.T) {
	toy, _ := toyRegion(t, 0)

	huts := HutLossScenarios(toy.Map)
	if len(huts) != 2 {
		t.Fatalf("hut scenarios = %d, want 2", len(huts))
	}
	// Each hub terminates two access ducts and the central duct.
	for _, sc := range huts {
		if sc.Kind != hutLoss || sc.CutCount() != 3 {
			t.Fatalf("hut scenario %q: kind %v, cuts %d; want HutLoss severing 3", sc.Name, sc.Kind, sc.CutCount())
		}
	}

	dcs := DCLossScenarios(toy.Map)
	if len(dcs) != 4 {
		t.Fatalf("dc scenarios = %d, want 4", len(dcs))
	}
	for _, sc := range dcs {
		if sc.Kind != dcLoss || sc.CutCount() != 1 {
			t.Fatalf("dc scenario %q: kind %v, cuts %d; want DCLoss severing 1", sc.Name, sc.Kind, sc.CutCount())
		}
		if sc.Node < 0 {
			t.Fatalf("dc scenario %q has no site", sc.Name)
		}
	}
}

func TestAmpFailureScenarios(t *testing.T) {
	// The toy region needs no amplifiers, so use a generated region large
	// enough to have amplified paths.
	gcfg := fibermap.DefaultGen()
	gcfg.Seed = 3
	m := fibermap.Generate(gcfg)
	pcfg := fibermap.DefaultPlace()
	pcfg.Seed, pcfg.N = 3, 4
	dcs, err := fibermap.PlaceDCs(m, pcfg)
	if err != nil {
		t.Fatal(err)
	}
	caps := make(map[int]int)
	for _, dc := range dcs {
		caps[dc] = 8
	}
	dep, err := core.Plan(core.Region{Map: m, Capacity: caps, Lambda: 40}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	scs := AmpFailureScenarios(dep.Plan)
	sites := 0
	for _, n := range dep.Plan.Amps {
		if n > 0 {
			sites++
		}
	}
	if len(scs) != sites {
		t.Fatalf("amp scenarios = %d, want one per amplified site (%d)", len(scs), sites)
	}
	for _, sc := range scs {
		if sc.Kind != ampFailure || sc.CutCount() == 0 || sc.Node < 0 {
			t.Fatalf("malformed amp scenario %+v", sc)
		}
	}
}

func TestGeoEvents(t *testing.T) {
	toy, _ := toyRegion(t, 0)
	scs := GeoEvents(11, toy.Map, 8, 5)
	if len(scs) != 5 {
		t.Fatalf("geo events = %d, want 5", len(scs))
	}
	for _, sc := range scs {
		if sc.Kind != geoEvent || sc.CutCount() == 0 {
			t.Fatalf("geo event %q severs nothing", sc.Name)
		}
		if sc.RadiusKM != 8 {
			t.Fatalf("geo event %q radius = %v, want 8", sc.Name, sc.RadiusKM)
		}
	}
	if again := GeoEvents(11, toy.Map, 8, 5); !reflect.DeepEqual(scs, again) {
		t.Fatal("GeoEvents is not deterministic for a fixed seed")
	}
}
