package repro

import (
	"go/ast"
	"go/parser"
	"go/scanner"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// apiKept pins the exported funcs and methods of internal/ that no
// shipped code names: every entry says why it stays although no run
// of a command, example or perfbench calls it. Everything else that
// no shipped code names is dead API and fails TestExportedAPIHasCallers.
var apiKept = map[string]string{
	// Paper checks, kept as the oracles tests hold the shipped engines to.
	"petri.Net.Coverable":            "backward coverability (Section 5), the oracle ShortestCoveringWord and Karp–Miller are held to",
	"petri.KMTree.Covers":            "Karp–Miller coverability, held to Coverable on random nets",
	"petri.KMTree.Bounded":           "Karp–Miller boundedness, checked on bounded and pumping nets",
	"petri.Net.PInvariants":          "P-invariants (Hilbert basis); their values are checked constant along closures",
	"petri.Net.HasUniformInvariant":  "the algebraic form of Conservative, held to it on the protocol nets",
	"petri.InvariantValue":           "evaluates a P-invariant on a configuration, read with PInvariants",
	"petri.Net.Conservative":         "syntactic agent conservation, asserted on the counting and spec constructions",
	"petri.Transition.Conservative":  "the per-transition half of Net.Conservative",
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
	// Methods called through an interface, never by name.
	"petri.BudgetError.Unwrap": "errors.Is reaches ErrBudget through it",
}

// TestExportedAPIHasCallers lists every exported func and method
// declared in a non-test file under internal/ whose name no non-test
// Go file of cmd/, internal/, examples/, perfbench/ or the root names
// outside that declaration, and compares the list with apiKept: a new
// unused export fails with its name, and so does a stale entry.
//
// The scan matches identifiers by name, without types. Its blind spot
// is a name that also means something else elsewhere: an unused
// method called Input passes because core.Protocol.Input is called, and a
// function named like a field or local passes because of it.
func TestExportedAPIHasCallers(t *testing.T) {
	type decl struct {
		key        string // pkg.Name or pkg.Recv.Name
		file       string
		start, end int // byte offsets of the declaration, doc included
	}
	decls := map[string][]decl{} // by name
	fset := token.NewFileSet()
	for _, path := range goFiles(t, "internal") {
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() {
				continue
			}
			key := f.Name.Name + "."
			if fn.Recv != nil {
				recv := recvName(fn.Recv.List[0].Type)
				if !ast.IsExported(recv) {
					// An exported method of an unexported type is
					// reached through an interface or an embedding.
					continue
				}
				key += recv + "."
			}
			key += fn.Name.Name
			start := fn.Pos()
			if fn.Doc != nil {
				start = fn.Doc.Pos()
			}
			decls[fn.Name.Name] = append(decls[fn.Name.Name], decl{
				key: key, file: path,
				start: fset.Position(start).Offset, end: fset.Position(fn.End()).Offset,
			})
		}
	}

	used := map[string]bool{}
	var files []string
	for _, dir := range []string{"cmd", "internal", "examples", "perfbench"} {
		files = append(files, goFiles(t, dir)...)
	}
	root, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range root {
		if !strings.HasSuffix(path, "_test.go") {
			files = append(files, path)
		}
	}
	for _, path := range files {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var s scanner.Scanner
		file := token.NewFileSet().AddFile(path, -1, len(src))
		s.Init(file, src, nil, 0) // comments are skipped
	tokens:
		for {
			pos, tok, lit := s.Scan()
			if tok == token.EOF {
				break
			}
			if tok != token.IDENT || used[lit] {
				continue
			}
			ds, ok := decls[lit]
			if !ok {
				continue
			}
			off := file.Offset(pos)
			for _, d := range ds {
				if d.file == path && d.start <= off && off < d.end {
					continue tokens
				}
			}
			used[lit] = true
		}
	}

	unused := map[string]bool{}
	for name, ds := range decls {
		if used[name] {
			continue
		}
		for _, d := range ds {
			unused[d.key] = true
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
		t.Errorf("%s: exported, but no shipped code calls it; delete it, move it under test, or pin it in apiKept with the reason it stays", key)
	}
	for _, key := range stale {
		t.Errorf("%s: pinned in apiKept, but it is gone or shipped code now calls it; drop the entry", key)
	}
}

// goFiles returns the non-test Go files under dir, testdata skipped.
func goFiles(t *testing.T, dir string) []string {
	t.Helper()
	var out []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == "testdata" {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			out = append(out, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// recvName returns the type name of a method receiver.
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}
