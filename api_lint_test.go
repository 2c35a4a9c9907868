package repro

import (
	"errors"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// apiKept pins the exported funcs, methods and *Options/*Config fields
// of internal/ that no shipped code uses: every entry says why it stays
// although no run of a command, example or perfbench calls or sets it.
// Everything else that no shipped code uses is dead API and fails
// TestExportedAPIHasCallers.
var apiKept = map[string]string{
	// Paper checks, kept as the oracles tests hold the shipped engines to.
	"petri.Net.Coverable":            "backward coverability (Section 5), the oracle ShortestCoveringWord and Karp–Miller are held to",
	"petri.KMTree.Covers":            "Karp–Miller coverability, held to Coverable on random nets",
	"petri.KMTree.Bounded":           "Karp–Miller boundedness, checked on bounded and pumping nets",
	"petri.Net.PInvariants":          "P-invariants (Hilbert basis); their values are checked constant along closures",
	"petri.Net.HasUniformInvariant":  "the algebraic form of Conservative, held to it on the protocol nets",
	"petri.InvariantValue":           "evaluates a P-invariant on a configuration, read with PInvariants",
	"petri.Net.Conservative":         "syntactic agent conservation, asserted on the counting and spec constructions",
	"core.Protocol.Lemma51Holds":     "Lemma 5.1, checked on concrete stabilized configurations",
	"core.CheckSmallValues":          "Lemma 5.4's small-values conclusion, checked on concrete instances",
	"core.Component":                 "the bottom SCC of a configuration, used by the ReachBottom reference oracle",
	"core.IsBottom":                  "bottomness of a configuration, used by the ReachBottom reference oracle",
	"ctrlnet.Net.Lemma73":            "Lemma 7.3's multicycle replacement, checked against its length bound",
	"conf.CountTotal":                "closed-form count of configurations, the enumerators' oracle",
	"bounds.Lemma62Length":           "Lemma 6.2's formula, certificate lengths are checked under it",
	"bounds.Lemma73MulticycleLength": "Lemma 7.3's formula, Lemma73 results are checked under it",
	"bounds.BEJUpperBoundStates":     "the Blondin–Esparza–Jaax upper bound the lower bounds are compared with",
	"bounds.Magnitude.IsExact":       "tells an exact magnitude from a log10 estimate in bound tests",
	// Accessors the closure reference test reads.
	"petri.ReachSet.Edges": "a node's out-edges, compared by reach_ref_test.go",
	"petri.ReachSet.Depth": "a node's BFS depth, compared by reach_ref_test.go",
	// Methods reached only by reflection or through an interface
	// declared outside the repo.
	"petri.BudgetError.Unwrap": "errors.Is reaches ErrBudget through it",
	// Test seams: settings no deployment needs, which tests set to
	// inject faults or shrink waits.
	"serve.Config.StoreProbeBase": "chaos tests shrink the degraded store's first self-heal probe delay",
	"store.Options.ProbeBase":     "chaos tests shrink it through serve.Config.StoreProbeBase, which serve.New forwards",
	"store.Options.RetryBase":     "the store chaos test shrinks the transient-retry backoff",
	"store.GCOptions.FS":          "the faultfs quarantine test runs gc over a fault-injecting filesystem",
}

// TestExportedAPIHasCallers type-checks the non-test Go of cmd/,
// internal/, examples/, perfbench/ and the root from source and lists
// what internal/ exports that nothing there uses:
//
//   - an exported func, or an exported method of an exported type,
//     that no shipped code refers to outside its own body, unless the
//     type implements an interface declared in the repo, error or
//     fmt.Stringer that has the method;
//   - an exported field of an exported *Options or *Config struct that
//     no shipped code writes: a keyed or positional composite literal,
//     an assignment, ++/-- or &field. A write whose value reads fields
//     of *Options or *Config structs forwards them, and counts only
//     once shipped code sets one of them: serve.New copying an unset
//     Config field into store.Options sets nothing.
//
// The list is compared with apiKept: a new unused export fails with its
// name, and so does a stale entry. Uses are resolved to their objects,
// so a name that also means something else elsewhere hides nothing.
func TestExportedAPIHasCallers(t *testing.T) {
	prog := loadShipped(t)

	options := map[types.Object]bool{} // fields of *Options/*Config structs
	for _, p := range prog.pkgs {
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			if !optionsType(name) {
				continue
			}
			if st, ok := scope.Lookup(name).Type().Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					options[st.Field(i)] = true
				}
			}
		}
	}

	m := &uses{used: map[types.Object]bool{}, options: options, forwards: map[types.Object][]types.Object{}}
	used := m.used
	var ifaces []*types.Interface
	for _, p := range prog.pkgs {
		for _, f := range p.files {
			for _, d := range f.Decls {
				var self types.Object
				if fn, ok := d.(*ast.FuncDecl); ok {
					self = p.info.Defs[fn.Name]
				}
				m.mark(p.info, d, self)
			}
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					ifaces = append(ifaces, it)
				}
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for src, dsts := range m.forwards {
			for _, dst := range dsts {
				if used[src] && !used[dst] {
					used[dst], changed = true, true
				}
			}
		}
	}
	fmtPkg, err := prog.std.Import("fmt")
	if err != nil {
		t.Fatal(err)
	}
	ifaces = append(ifaces,
		types.Universe.Lookup("error").Type().Underlying().(*types.Interface),
		fmtPkg.Scope().Lookup("Stringer").Type().Underlying().(*types.Interface))

	unused := map[string]bool{}
	for _, p := range prog.pkgs {
		if !strings.HasPrefix(p.types.Path(), "repro/internal/") {
			continue
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			if !token.IsExported(name) {
				continue
			}
			key := p.types.Name() + "." + name
			switch obj := scope.Lookup(name).(type) {
			case *types.Func:
				if !used[obj] {
					unused[key] = true
				}
			case *types.TypeName:
				named, ok := obj.Type().(*types.Named)
				if !ok || obj.IsAlias() {
					continue
				}
				for i := 0; i < named.NumMethods(); i++ {
					m := named.Method(i)
					if m.Exported() && !used[m] && !viaInterface(named, m.Name(), ifaces) {
						unused[key+"."+m.Name()] = true
					}
				}
				st, ok := named.Underlying().(*types.Struct)
				if !ok || !optionsType(name) {
					continue
				}
				for i := 0; i < st.NumFields(); i++ {
					if f := st.Field(i); f.Exported() && !used[f] {
						unused[key+"."+f.Name()] = true
					}
				}
			}
		}
	}

	var fresh, stale []string
	for key := range unused {
		if _, ok := apiKept[key]; !ok {
			fresh = append(fresh, key)
		}
	}
	for key := range apiKept {
		if !unused[key] {
			stale = append(stale, key)
		}
	}
	sort.Strings(fresh)
	sort.Strings(stale)
	for _, key := range fresh {
		t.Errorf("%s: exported, but no shipped code calls or sets it; delete it, move it under test, or pin it in apiKept with the reason it stays", key)
	}
	for _, key := range stale {
		t.Errorf("%s: pinned in apiKept, but it is gone or shipped code now uses it; drop the entry", key)
	}
}

// optionsType reports whether a struct type named name holds settings
// whose fields the lint counts.
func optionsType(name string) bool {
	return strings.HasSuffix(name, "Options") || strings.HasSuffix(name, "Config")
}

// uses collects what shipped code calls and sets.
type uses struct {
	used     map[types.Object]bool
	options  map[types.Object]bool           // fields of *Options/*Config structs
	forwards map[types.Object][]types.Object // options field → fields written from it
}

// mark records in used every func and method node refers to, except
// self (a recursive call is no caller), and every struct field it
// writes. A write whose value reads options fields is recorded in
// forwards instead, to count once one of them is set.
func (m *uses) mark(info *types.Info, node ast.Node, self types.Object) {
	write := func(field types.Object, value ast.Expr) {
		field = field.(*types.Var).Origin()
		var srcs []types.Object
		if value != nil {
			ast.Inspect(value, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					if v, ok := info.Uses[sel.Sel].(*types.Var); ok && m.options[v.Origin()] {
						srcs = append(srcs, v.Origin())
					}
				}
				return true
			})
		}
		if len(srcs) == 0 {
			m.used[field] = true
		}
		for _, src := range srcs {
			m.forwards[src] = append(m.forwards[src], field)
		}
	}
	writeTo := func(e, value ast.Expr) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			if v, ok := info.Uses[sel.Sel].(*types.Var); ok && v.IsField() {
				write(v, value)
			}
		}
	}
	ast.Inspect(node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if fn, ok := info.Uses[n].(*types.Func); ok && fn != self {
				m.used[fn.Origin()] = true
			}
		case *ast.CompositeLit:
			typ := info.TypeOf(n)
			if ptr, ok := typ.(*types.Pointer); ok {
				typ = ptr.Elem()
			}
			st, ok := typ.Underlying().(*types.Struct)
			if !ok {
				break
			}
			for i, elt := range n.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					if v, ok := info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
						write(v, kv.Value)
					}
				} else {
					write(st.Field(i), elt)
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				var value ast.Expr
				if len(n.Rhs) == len(n.Lhs) {
					value = n.Rhs[i]
				}
				writeTo(lhs, value)
			}
		case *ast.IncDecStmt:
			writeTo(n.X, nil)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				writeTo(n.X, nil)
			}
		}
		return true
	})
}

// viaInterface reports whether T or *T implements one of ifaces that
// has a method called name, so calls through the interface reach it.
func viaInterface(named *types.Named, name string, ifaces []*types.Interface) bool {
	if named.TypeParams().Len() > 0 {
		return false
	}
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == name &&
				(types.Implements(named, it) || types.Implements(types.NewPointer(named), it)) {
				return true
			}
		}
	}
	return false
}

// shippedProgram is the repo's non-test Go, type-checked from source.
// Import path repro/<dir> names the package in <dir>, perfbench's
// module (repro/perfbench) included; every other import is the standard
// library, read from its export data.
type shippedProgram struct {
	fset *token.FileSet
	pkgs map[string]*shippedPkg // by import path
	std  types.Importer
}

type shippedPkg struct {
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// loadShipped parses every package, lists the export data of the
// standard library packages they import in one go list call, and
// type-checks the packages in dependency order.
func loadShipped(t *testing.T) *shippedProgram {
	t.Helper()
	prog := &shippedProgram{fset: token.NewFileSet(), pkgs: map[string]*shippedPkg{}}
	std := map[string]bool{"fmt": true}
	dirs := []string{"."}
	for _, top := range []string{"cmd", "internal", "examples", "perfbench"} {
		err := filepath.WalkDir(top, func(path string, d fs.DirEntry, err error) error {
			switch {
			case err != nil:
				return err
			case d.IsDir() && d.Name() == "testdata":
				return filepath.SkipDir
			case d.IsDir():
				dirs = append(dirs, path)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, dir := range dirs {
		bp, err := build.ImportDir(dir, 0)
		var noGo *build.NoGoError
		if errors.As(err, &noGo) || err == nil && len(bp.GoFiles) == 0 {
			continue // no Go files, or tests only
		}
		if err != nil {
			t.Fatal(err)
		}
		p := &shippedPkg{}
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(prog.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			p.files = append(p.files, f)
		}
		for _, path := range bp.Imports {
			if path != "repro" && !strings.HasPrefix(path, "repro/") {
				std[path] = true
			}
		}
		prog.pkgs[filepath.ToSlash(filepath.Join("repro", dir))] = p
	}

	args := []string{"list", "-export", "-f", "{{.ImportPath}}\t{{.Export}}"}
	for path := range std {
		args = append(args, path)
	}
	out, err := exec.Command(filepath.Join(build.Default.GOROOT, "bin", "go"), args...).Output()
	if err != nil {
		t.Fatalf("go list -export: %v", err)
	}
	exports := map[string]string{} // import path → export data file
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		path, file, _ := strings.Cut(line, "\t")
		exports[path] = file
	}
	prog.std = importer.ForCompiler(prog.fset, "gc", func(path string) (io.ReadCloser, error) {
		file := exports[path]
		if file == "" {
			return nil, errors.New("no export data for " + path)
		}
		return os.Open(file)
	})

	for path := range prog.pkgs {
		if _, err := prog.check(path); err != nil {
			t.Fatal(err)
		}
	}
	return prog
}

// check type-checks the repo package at path, once, after its imports.
func (prog *shippedProgram) check(path string) (*types.Package, error) {
	p := prog.pkgs[path]
	if p.types != nil {
		return p.types, nil
	}
	p.info = &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{Importer: prog}
	pkg, err := conf.Check(path, prog.fset, p.files, p.info)
	if err != nil {
		return nil, err
	}
	p.types = pkg
	return pkg, nil
}

// Import resolves repro/… to the repo's sources and everything else to
// the standard library's export data.
func (prog *shippedProgram) Import(path string) (*types.Package, error) {
	if _, ok := prog.pkgs[path]; ok {
		return prog.check(path)
	}
	return prog.std.Import(path)
}
