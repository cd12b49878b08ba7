package iris

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
)

// The export census: everything lives under internal/, so an exported
// identifier that no non-test code outside its own package refers to is
// surface nobody uses. TestExportCensus type-checks the module's
// non-test files, lists those identifiers, and compares the list with
// testdata/census-allow.txt; it fails on a finding the file lacks and
// on an entry the census no longer finds, so the file can only shrink.
// A package whose import path ends in "test" is test support, as
// net/http/httptest is: only tests call it, and TestArchitecture keeps
// non-test code from importing it, so the census skips it. DESIGN.md
// ("Surface") states the rule and the four headings.

const (
	modulePath  = "iris"
	allowFile   = "testdata/census-allow.txt"
	benchPrefix = modulePath + "/bench"
)

// censusHeadings are the allow-list's sections, in file order.
var censusHeadings = []string{"bench", "oracle", "seam", "paper"}

// stdlibInterfaces are the standard-library interfaces a method may
// exist to satisfy without any module code naming it.
var stdlibInterfaces = [][2]string{
	{"fmt", "Stringer"},
	{"encoding", "TextMarshaler"}, {"encoding", "TextUnmarshaler"},
	{"encoding/json", "Marshaler"}, {"encoding/json", "Unmarshaler"},
	{"net/http", "Handler"},
	{"sort", "Interface"}, {"container/heap", "Interface"},
	{"io", "Reader"}, {"io", "Writer"}, {"io", "Closer"},
	{"flag", "Value"},
}

// module is the type-checked non-test source of every package in the
// module, loaded on demand through Import.
type module struct {
	fset *token.FileSet
	std  types.Importer
	dirs map[string]string // import path → directory
	pkgs map[string]*types.Package
	info map[string]*types.Info
	asts map[string][]*ast.File
}

// theModule is loaded once per test binary, for every test that reads it.
var theModule = sync.OnceValues(func() (*module, error) { return loadModule(".") })

func (m *module) Import(path string) (*types.Package, error) {
	dir, ok := m.dirs[path]
	if !ok {
		return m.std.Import(path)
	}
	if p := m.pkgs[path]; p != nil {
		return p, nil
	}
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, filepath.Base(name)); err != nil || !ok {
			continue
		}
		f, err := parser.ParseFile(m.fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Defs: map[*ast.Ident]types.Object{},
		Uses: map[*ast.Ident]types.Object{},
	}
	p, err := (&types.Config{Importer: m}).Check(path, m.fset, files, info)
	if err != nil {
		return nil, err
	}
	m.pkgs[path], m.info[path], m.asts[path] = p, info, files
	return p, nil
}

// loadModule type-checks every directory under root that holds a
// non-test Go file.
func loadModule(root string) (*module, error) {
	fset := token.NewFileSet()
	m := &module{
		fset: fset,
		std:  importer.ForCompiler(fset, "source", nil),
		dirs: map[string]string{},
		pkgs: map[string]*types.Package{},
		info: map[string]*types.Info{},
		asts: map[string][]*ast.File{},
	}
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); p != root && (strings.HasPrefix(n, ".") || n == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(p, ".go") && !strings.HasSuffix(p, "_test.go") {
			rel, err := filepath.Rel(root, filepath.Dir(p))
			if err != nil {
				return err
			}
			path := modulePath
			if rel != "." {
				path += "/" + filepath.ToSlash(rel)
			}
			m.dirs[path] = filepath.Dir(p)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for path := range m.dirs {
		if _, err := m.Import(path); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
	}
	return m, nil
}

// finding is one exported identifier of internal/ that no non-test code
// outside its package (bench/ aside) refers to.
type finding struct {
	name  string // pkg.Ident or pkg.Type.Method
	bench bool   // bench/ refers to it
}

// censusName is how an object is written in the allow-list.
func censusName(obj types.Object) string {
	pkg := strings.TrimPrefix(obj.Pkg().Path(), modulePath+"/internal/")
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			return pkg + "." + receiverNamed(recv.Type()).Obj().Name() + "." + fn.Name()
		}
	}
	return pkg + "." + obj.Name()
}

func receiverNamed(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

func internalPkg(p *types.Package) bool {
	return p != nil && strings.HasPrefix(p.Path(), modulePath+"/internal/")
}

// census lists the findings, sorted by name.
func census(m *module) ([]finding, error) {
	// Who refers to what: for every object, whether some other package
	// does, and whether bench/ does.
	outside := map[types.Object]bool{}
	bench := map[types.Object]bool{}
	for path, info := range m.info {
		for _, obj := range info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				obj = fn.Origin()
			}
			if !internalPkg(obj.Pkg()) || obj.Pkg().Path() == path {
				continue
			}
			if strings.HasPrefix(path, benchPrefix) {
				bench[obj] = true
			} else {
				outside[obj] = true
			}
		}
	}

	// The interfaces a method may exist to satisfy.
	var ifaces []*types.Interface
	for _, p := range m.pkgs {
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					ifaces = append(ifaces, it)
				}
			}
		}
	}
	ifaces = append(ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	for _, s := range stdlibInterfaces {
		p, err := m.std.Import(s[0])
		if err != nil {
			return nil, err
		}
		ifaces = append(ifaces, p.Scope().Lookup(s[1]).Type().Underlying().(*types.Interface))
	}
	satisfies := func(named *types.Named, method string) bool {
		if method == "Unwrap" { // errors.Is/As find it by name
			return true
		}
		for _, it := range ifaces {
			for i := 0; i < it.NumMethods(); i++ {
				if it.Method(i).Name() == method && types.Implements(types.NewPointer(named), it) {
					return true
				}
			}
		}
		return false
	}

	// Types reachable from what outsiders use: named in the signature of
	// a used func, the type of a used var or const, or the exported
	// fields of a used or reachable struct.
	reachable := map[*types.TypeName]bool{}
	var walk func(t types.Type)
	walk = func(t types.Type) {
		switch t := t.(type) {
		case *types.Named:
			tn := t.Origin().Obj()
			for i := 0; i < t.TypeArgs().Len(); i++ {
				walk(t.TypeArgs().At(i))
			}
			if !internalPkg(tn.Pkg()) || reachable[tn] {
				return
			}
			reachable[tn] = true
			walk(t.Origin().Underlying())
		case *types.Pointer:
			walk(t.Elem())
		case *types.Slice:
			walk(t.Elem())
		case *types.Array:
			walk(t.Elem())
		case *types.Chan:
			walk(t.Elem())
		case *types.Map:
			walk(t.Key())
			walk(t.Elem())
		case *types.Signature:
			walk(t.Params())
			walk(t.Results())
		case *types.Tuple:
			for i := 0; i < t.Len(); i++ {
				walk(t.At(i).Type())
			}
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				if t.Field(i).Exported() {
					walk(t.Field(i).Type())
				}
			}
		case *types.Interface:
			for i := 0; i < t.NumExplicitMethods(); i++ {
				walk(t.ExplicitMethod(i).Type())
			}
		}
	}
	for obj := range outside {
		if v, ok := obj.(*types.Var); ok && v.IsField() {
			continue // fields are out of scope; a used struct is walked whole
		}
		walk(obj.Type())
	}

	var out []finding
	add := func(obj types.Object) {
		if !outside[obj] {
			out = append(out, finding{censusName(obj), bench[obj]})
		}
	}
	for _, p := range m.pkgs {
		if !internalPkg(p) || strings.HasSuffix(p.Path(), "test") {
			continue
		}
		for _, name := range p.Scope().Names() {
			obj := p.Scope().Lookup(name)
			tn, isType := obj.(*types.TypeName)
			if obj.Exported() && !(isType && reachable[tn]) {
				add(obj)
			}
			if !isType || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				if fn := named.Method(i); fn.Exported() && !satisfies(named, fn.Name()) {
					add(fn)
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out, nil
}

// readAllowList parses testdata/census-allow.txt: "[heading]" lines, then
// "pkg.Ident  reason" lines; '#' starts a comment.
func readAllowList(name string) (map[string]string, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	heading := ""
	allowed := map[string]string{} // identifier → heading
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		switch {
		case text == "" || strings.HasPrefix(text, "#"):
		case strings.HasPrefix(text, "[") && strings.HasSuffix(text, "]"):
			heading = text[1 : len(text)-1]
			if !slices.Contains(censusHeadings, heading) {
				return nil, fmt.Errorf("%s:%d: unknown heading %q", name, line, heading)
			}
		default:
			ident, reason, _ := strings.Cut(text, " ")
			if heading == "" || strings.TrimSpace(reason) == "" {
				return nil, fmt.Errorf("%s:%d: %q needs a heading above it and a reason after it", name, line, ident)
			}
			if _, dup := allowed[ident]; dup {
				return nil, fmt.Errorf("%s:%d: %s listed twice", name, line, ident)
			}
			allowed[ident] = heading
		}
	}
	return allowed, sc.Err()
}

func TestExportCensus(t *testing.T) {
	m, err := theModule()
	if err != nil {
		t.Fatal(err)
	}
	found, err := census(m)
	if err != nil {
		t.Fatal(err)
	}
	allowed, err := readAllowList(allowFile)
	if err != nil {
		t.Fatal(err)
	}
	totals := map[string]int{}
	for _, f := range found {
		heading, ok := allowed[f.name]
		delete(allowed, f.name)
		switch {
		case !ok && f.bench:
			t.Errorf("%s: only bench/ calls it; list it under [bench] in %s", f.name, allowFile)
		case !ok:
			t.Errorf("%s: exported, but no non-test code outside its package refers to it; delete it, unexport it, or list it in %s", f.name, allowFile)
		case f.bench != (heading == "bench"):
			t.Errorf("%s: listed under [%s], but bench/ calls it: %v", f.name, heading, f.bench)
		default:
			totals[heading]++
		}
	}
	for name, heading := range allowed {
		t.Errorf("%s: listed under [%s], but the census no longer finds it; remove the line", name, heading)
	}
	for _, h := range censusHeadings {
		t.Logf("%-6s %d", h, totals[h])
	}
}
