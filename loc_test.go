package repro_test

import (
	"bytes"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var updateLOC = flag.Bool("update", false, "rewrite LOC.txt from this tree")

// docsRows are the byte rows: the three documents a reader starts from,
// and the two logs every PR appends to.
var docsRows = []string{"README.md+DESIGN.md+EXPERIMENTS.md", "CHANGES.md+ROADMAP.md"}

// annFields are the fields of stype.Ann that decide how a use is read.
var annFields = map[string]bool{"AsChar": true, "Range": true, "Repertoire": true, "NonNull": true, "NoAlias": true,
	"ByValue": true, "FixedLen": true, "LengthFrom": true, "CollectionOf": true, "ElementNonNull": true, "Ignore": true, "Mode": true}

// isAnn says whether e is, by its syntax, a stype.Ann or a pointer to one:
// a selection of a field named Ann, an Ann literal, a Merge of one, or a
// variable declared as one or assigned one.
func isAnn(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.SelectorExpr:
		return e.Sel.Name == "Ann"
	case *ast.StarExpr: // *ann, and the type *stype.Ann
		return isAnn(e.X)
	case *ast.UnaryExpr: // &t.Ann
		return isAnn(e.X)
	case *ast.CompositeLit:
		return isAnn(e.Type)
	case *ast.CallExpr:
		sel, ok := e.Fun.(*ast.SelectorExpr)
		return ok && sel.Sel.Name == "Merge" && isAnn(sel.X)
	case *ast.Ident:
		if e.Name == "Ann" {
			return true // the type, inside package stype
		}
		if e.Obj == nil {
			return false
		}
		switch d := e.Obj.Decl.(type) {
		case *ast.Field:
			return isAnn(d.Type)
		case *ast.ValueSpec:
			return d.Type != nil && isAnn(d.Type) || len(d.Values) == 1 && isAnn(d.Values[0])
		case *ast.AssignStmt:
			for i, lhs := range d.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && id.Name == e.Name && len(d.Rhs) == len(d.Lhs) {
					return isAnn(d.Rhs[i])
				}
			}
		}
	}
	return false
}

// annReads counts the sites of a file that read an annotation's meaning:
// selections of a decision field of a stype.Ann, and calls of Ann.Merge.
func annReads(t *testing.T, path string) (n int) {
	file, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	ast.Inspect(file, func(node ast.Node) bool {
		if sel, ok := node.(*ast.SelectorExpr); ok && isAnn(sel.X) && (annFields[sel.Sel.Name] || sel.Sel.Name == "Merge") {
			n++
		}
		return true
	})
	return n
}

// packageFiles maps every package directory the patterns match to its
// non-test Go files.
func packageFiles(t *testing.T, patterns ...string) map[string][]string {
	t.Helper()
	pkgs := map[string][]string{}
	for _, pattern := range patterns {
		dirs, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		for _, dir := range dirs {
			files, _ := filepath.Glob(filepath.Join(dir, "*.go"))
			for _, f := range files {
				if !strings.HasSuffix(f, "_test.go") {
					pkgs[filepath.ToSlash(dir)] = append(pkgs[filepath.ToSlash(dir)], f)
				}
			}
		}
	}
	return pkgs
}

// locRows computes what ROADMAP tracks ("Non-test LOC per package is
// tracked; growth needs a reason"): for every package under internal/ and
// cmd/, its non-test lines, the unsupported( refusal sites among them and
// its annotation reads — lower owns the reading of an annotated use, and a
// read anywhere downstream of it is a second reading — and for each set of
// documents, their bytes.
func locRows(t *testing.T) (names []string, rows map[string][3]int) {
	t.Helper()
	rows = map[string][3]int{}
	for pkg, files := range packageFiles(t, "internal/*", "cmd/*") {
		var row [3]int
		for _, f := range files {
			row[2] += annReads(t, f)
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			for _, l := range bytes.SplitAfter(src, []byte("\n")) {
				if len(l) > 0 {
					row[0]++
				}
				if bytes.Contains(l, []byte("unsupported(")) {
					row[1]++
				}
			}
		}
		rows[pkg] = row
	}
	for _, docs := range docsRows {
		var row [3]int
		for _, f := range strings.Split(docs, "+") {
			st, err := os.Stat(f)
			if err != nil {
				t.Fatal(err)
			}
			row[0] += int(st.Size())
		}
		rows[docs] = row
	}
	for name := range rows {
		names = append(names, name)
	}
	sort.Strings(names)
	return names, rows
}

// TestLOCLedger holds the tree to LOC.txt: a row that rose, or is new,
// fails until the ledger changes in the same commit, so growth shows in
// the diff it arrives in; a row that fell only asks for a regeneration.
func TestLOCLedger(t *testing.T) {
	names, got := locRows(t)
	if *updateLOC {
		var out strings.Builder
		out.WriteString("# non-test lines (bytes, for the documents), unsupported( sites and annotation reads; rewritten by\n# `go test -run TestLOCLedger -update .`, which any row that rises has to ride with\n")
		for _, name := range names {
			fmt.Fprintf(&out, "%7d %3d %3d %s\n", got[name][0], got[name][1], got[name][2], name)
		}
		if err := os.WriteFile("LOC.txt", []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	text, err := os.ReadFile("LOC.txt")
	if err != nil {
		t.Fatal(err)
	}
	ledger := map[string][3]int{}
	for _, l := range strings.Split(string(text), "\n") {
		var row [3]int
		var name string
		if n, _ := fmt.Sscanf(l, "%d %d %d %s", &row[0], &row[1], &row[2], &name); n == 4 {
			ledger[name] = row
		}
	}
	for _, name := range names {
		g, l := got[name], ledger[name]
		switch {
		case g[0] > l[0] || g[1] > l[1] || g[2] > l[2]:
			t.Errorf("%s: %d lines, %d unsupported( sites, %d annotation reads; LOC.txt says %d, %d, %d; if the growth has a reason, rerun with -update and give it", name, g[0], g[1], g[2], l[0], l[1], l[2])
		case g != l:
			t.Logf("%s fell to %d lines, %d unsupported( sites, %d annotation reads (LOC.txt: %d, %d, %d); regenerate with -update", name, g[0], g[1], g[2], l[0], l[1], l[2])
		}
	}
}
