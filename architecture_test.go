package iris

import (
	"go/ast"
	"go/token"
	"go/types"
	"path"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// The architecture: the north star's "one way to do each thing" as rules
// over the non-test code TestExportCensus type-checks. A rule's subjects
// may not occur in its places in (nil: anywhere) outside those in except.
// A place is a package directory ("." is the root) or a file. A subject:
//
//	pkg.Name, pkg.Type.Member  a reference, through types.Info.Uses (pkg is
//	                           under internal/ or a standard-library path)
//	import path                an import of that package
//	go in pkg.Type             a go statement in a method of that type
//	file                       a file
//
// A subject that no longer resolves fails: delete its row. An exception is
// an edit to a row and its reason. The device protocol's rules are tests of
// its behaviour: a device takes its own operations only
// (control.TestUnknownDeviceAndOp), a bank batches only
// (fabric.TestReconfigureRPCBudget).
type rule struct {
	subjects, in, except []string
	why                  string
}

var architecture = []rule{
	{[]string{"graph.Graph.WithoutEdges", "chaos.Scenario.CutSet", "hose.WorstCaseLoad"}, nil, []string{"bench"},
		"reference forms of a cut and of the hose LP: production cuts with graph.Cut masks through plan.Evaluator and solves with hose.LP; tests and bench/ compare against these"},
	{[]string{"graph.Graph.DijkstraInto"}, nil, []string{"internal/graph"},
		"scenarios are routed by plan.Evaluator, which repairs its trees in place below the cut duct (graph.Graph.Repair), and checked by chaos.Auditor; the full Dijkstra per scenario is the tests' oracle"},
	{[]string{"plan.PathInfo.CutDucts"}, nil, []string{"internal/plan", "internal/core"},
		"which ducts a pair's full fibers skip is decided in plan and applied in core's ride; every other package asks core.Occupancy or DuctDeltas"},
	{[]string{"plan.PathInfo.Ducts"}, []string{"internal/core"}, []string{"internal/core/diff.go"},
		"ride is core's one reader of a planned route; which pairs ride a duct, the allocator asks the plan's evaluator (plan.Evaluator.Crossing)"},
	{[]string{"control.Controller.States"}, nil, []string{"internal/control", "internal/daemon/health.go"},
		"only control.Controller.Repair and Audit read a device state and compare it with intent; beyond them the daemon's probe round is the one fetch of device state"},
	{[]string{"control.Controller.Reconfigure"}, nil, []string{"internal/control", "internal/daemon/daemon.go", "examples/reconfig", "bench"},
		"the daemon is the one writer of a fabric: commitChange and repairIn run a change and close it with the audit of its writes' replies; examples/reconfig drives hand-built devices with no fabric, and bench/tick.go's replay goes with ROADMAP item 17(b)"},
	{[]string{"history.Lake.Append"}, nil, []string{"internal/daemon/history.go", "bench"},
		"recordHistory is the one writer of a history record: converge, repair and chaos cycle alike bracket their operation with the daemon's health and books and append through it"},
	{[]string{"import iris/internal/history"}, []string{"internal/chaos"}, nil,
		"chaos injects and restores faults; the cycle that records them is a daemon operation (daemon.Daemon.ChaosCycle)"},
	{[]string{"import container/heap"}, []string{"internal/graph"}, nil, "the one Dijkstra loop keeps its own indexed heap"},
	{[]string{"import iris/internal/control/devicetest"}, nil, nil,
		"devicetest is the tests' programmable device; the census skips it as test support, so no production code may depend on it"},
	{[]string{"import iris/internal/traffic/traffictest"}, nil, nil,
		"traffictest is the tests' scripted traffic feed; the census skips it as test support, so no production code may depend on it"},
	{[]string{"import encoding/json"}, []string{"internal/control"}, []string{"internal/control/wire.go"},
		"wire.go is the line protocol's one codec; encoding/json is its fallback for escaped strings and out-of-set values"},
	{[]string{"import reflect", "fmt.Sscanf"}, []string{"internal/control"}, nil, "the audit compares the typed values wire.go decodes"},
	{[]string{"encoding/json.Marshal"}, nil, []string{"internal/jsonw", "internal/httpjson", "internal/control/wire.go", "internal/history/history.go", "bench"},
		"an HTTP body goes through httpjson.Write, the one writer, and appends itself when a measured read serves it; json.Marshal is left to jsonw's string fallback, httpjson's reflected debug dumps, the line protocol's fallback, the history journal and bench/'s result line"},
	{[]string{"import net/http"}, []string{"internal/jsonw", "internal/control"}, nil,
		"the device plane's codec and the JSON primitives it writes strings with link no HTTP stack; the HTTP writer is httpjson"},
	{[]string{"go in control.Controller", "go in control.client", "go in daemon.Daemon"}, nil, nil,
		"Controller.round is the one way requests are in flight on several devices, and a probe is one round (Controller.States); the device side's serve keeps its goroutines"},
	{[]string{"fibermap.PlaceDCs"}, nil, []string{"internal/fibermap", "internal/experiments/cost_sweep.go", "bench"},
		"a region is built by fibermap.Spec.Map, or by fibermap.Placed where a figure passes its own placement seed, so one seed names one region in every binary; the cost sweep places on clones of one generated map, and bench/ times generation and placement apart"},
	{[]string{"file"}, []string{"."}, []string{"doc.go"},
		"the root package is a package comment and tests; the library is entered through internal/core"},
}

func TestArchitecture(t *testing.T) {
	m, err := theModule()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range architecture {
		for _, s := range r.subjects {
			for _, pos := range occurrences(t, m, s) {
				at := func(place string) bool { return place == pos.Filename || place == path.Dir(pos.Filename) }
				if (r.in == nil || slices.ContainsFunc(r.in, at)) && !slices.ContainsFunc(r.except, at) {
					t.Errorf("%s:%d: %s: %s", pos.Filename, pos.Line, s, r.why)
				}
			}
		}
	}
}

// occurrences lists where subject occurs in the module's non-test code.
func occurrences(t *testing.T, m *module, subject string) []token.Position {
	var found []token.Position
	add := func(p token.Pos) { found = append(found, m.fset.Position(p)) }
	kind, arg, _ := strings.Cut(subject, " ")
	var obj types.Object
	if kind == "go" {
		obj = m.lookup(t, strings.TrimPrefix(arg, "in "))
	} else if kind != "file" && kind != "import" {
		kind, obj = "ident", m.lookup(t, subject)
	}
	for pkg, files := range m.asts {
		info := m.info[pkg]
		if kind == "ident" {
			for id, used := range info.Uses {
				if fn, ok := used.(*types.Func); ok {
					used = fn.Origin()
				}
				if used == obj {
					add(id.Pos())
				}
			}
		}
		for _, f := range files {
			switch kind {
			case "file":
				add(f.Package)
			case "import":
				for _, imp := range f.Imports {
					if p, _ := strconv.Unquote(imp.Path.Value); p == arg {
						add(imp.Pos())
					}
				}
			case "go":
				for _, d := range f.Decls {
					fd, ok := d.(*ast.FuncDecl)
					if ok && fd.Recv != nil && receiverNamed(info.Defs[fd.Name].Type().(*types.Signature).Recv().Type()).Obj() == obj {
						ast.Inspect(fd.Body, func(n ast.Node) bool {
							if _, ok := n.(*ast.GoStmt); ok {
								add(n.Pos())
							}
							return true
						})
					}
				}
			}
		}
	}
	return found
}

// lookup resolves pkg.Name or pkg.Type.Member.
func (m *module) lookup(t *testing.T, name string) types.Object {
	parts := strings.Split(name, ".")
	ip := modulePath + "/internal/" + parts[0]
	if m.dirs[ip] == "" {
		ip = parts[0] // a standard-library package
	}
	p, err := m.Import(ip)
	if err != nil {
		t.Fatal(err)
	}
	obj := p.Scope().Lookup(parts[1])
	if obj != nil && len(parts) == 3 {
		obj, _, _ = types.LookupFieldOrMethod(obj.Type(), true, p, parts[2])
	}
	if obj == nil {
		t.Fatalf("%s: no such identifier; delete or correct its row", name)
	}
	return obj
}
