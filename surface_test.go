package repro_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// surfaceHeader opens SURFACE.txt.
const surfaceHeader = `# Exported names of internal/* that no non-test file reaches: package-level names and methods nothing
# outside their declaration refers to, and fields of *Options / Limits structs nothing sets (withDefaults
# aside). Each row says why it stays; a new row fails TestSurfaceLedger until it has a reason. Rewritten,
# reasons kept, by ` + "`go test -run TestSurfaceLedger -update .`" + `
`

// surfaceRows computes the ledger: every exported package-level name,
// exported method, and exported field of a struct named *Options or
// Limits declared in a non-test file of internal/* (internal/testutil
// aside) that no non-test file of internal/*, cmd/*, examples/* or bench
// reaches. A package-level name is reached by any other identifier of that
// name in its own package, or a selection of it through an import of its
// package. A method is reached by any selection of its name. A field is
// reached when a file sets it — a composite-literal key, an assignment, an
// increment or its address taken — except where its owner's withDefaults
// sets its own receiver's field. Matching methods and fields by name alone
// can take a dead name for a reached one, never the reverse.
func surfaceRows(t *testing.T) []string {
	t.Helper()
	type file struct {
		pkg string // its package directory, e.g. internal/broker
		ast *ast.File
	}
	var files []file
	pkgName := map[string]string{} // import path → package name
	for dir, paths := range packageFiles(t, "internal/*", "cmd/*", "examples/*", "bench") {
		if dir == "internal/testutil" {
			continue
		}
		for _, p := range paths {
			f, err := parser.ParseFile(token.NewFileSet(), p, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, file{dir, f})
			pkgName["repro/"+dir] = f.Name.Name
		}
	}

	// What the product reaches: identifiers per package, selections of
	// another package's names, selector names, and set field names.
	idents := map[string]int{}    // pkg.name → identifier count
	imported := map[string]bool{} // pkg.name → selected through an import
	selected := map[string]bool{} // selector names
	set := map[string]bool{}      // field names set somewhere
	defaults := map[ast.Expr]bool{}
	setField := func(e ast.Expr) {
		if sel, ok := e.(*ast.SelectorExpr); ok && !defaults[e] {
			set[sel.Sel.Name] = true
		}
	}
	for _, f := range files {
		imports := map[string]string{} // local name → package directory
		for _, imp := range f.ast.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			if name, ok := pkgName[p]; ok {
				if imp.Name != nil {
					name = imp.Name.Name
				}
				imports[name] = strings.TrimPrefix(p, "repro/")
			}
		}
		var visit func(ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Name.Name == "withDefaults" && n.Recv != nil && len(n.Recv.List[0].Names) == 1 {
					markDefaults(n, defaults)
				}
			case *ast.Ident:
				idents[f.pkg+"."+n.Name]++
			case *ast.SelectorExpr:
				selected[n.Sel.Name] = true
				if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
					imported[imports[x.Name]+"."+n.Sel.Name] = true
				}
				ast.Inspect(n.X, visit) // a selected name is no identifier of this package
				return false
			case *ast.KeyValueExpr:
				if k, ok := n.Key.(*ast.Ident); ok {
					set[k.Name] = true
				}
			case *ast.AssignStmt:
				for _, l := range n.Lhs {
					setField(l)
				}
			case *ast.IncDecStmt:
				setField(n.X)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					setField(n.X)
				}
			}
			return true
		}
		ast.Inspect(f.ast, visit)
	}

	var rows []string
	for _, f := range files {
		if !strings.HasPrefix(f.pkg, "internal/") {
			continue
		}
		reached := func(name string) bool { // the declaring identifier is one
			return idents[f.pkg+"."+name] > 1 || imported[f.pkg+"."+name]
		}
		for _, d := range f.ast.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				switch {
				case !d.Name.IsExported():
				case d.Recv == nil:
					if !reached(d.Name.Name) {
						rows = append(rows, f.pkg+"."+d.Name.Name)
					}
				case !selected[d.Name.Name]:
					rows = append(rows, f.pkg+"."+recvName(d.Recv.List[0].Type)+"."+d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() && !reached(s.Name.Name) {
							rows = append(rows, f.pkg+"."+s.Name.Name)
						}
						st, ok := s.Type.(*ast.StructType)
						if !ok || !strings.HasSuffix(s.Name.Name, "Options") && s.Name.Name != "Limits" {
							continue
						}
						for _, field := range st.Fields.List {
							for _, n := range field.Names {
								if n.IsExported() && !set[n.Name] {
									rows = append(rows, f.pkg+"."+s.Name.Name+"."+n.Name)
								}
							}
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() && !reached(n.Name) {
								rows = append(rows, f.pkg+"."+n.Name)
							}
						}
					}
				}
			}
		}
	}
	sort.Strings(rows)
	return rows
}

// markDefaults marks the assignments of a withDefaults method to its own
// receiver's fields: those are the owner's defaults, not settings.
func markDefaults(fn *ast.FuncDecl, defaults map[ast.Expr]bool) {
	recv := fn.Recv.List[0].Names[0].Name
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if as, ok := n.(*ast.AssignStmt); ok {
			for _, l := range as.Lhs {
				if sel, ok := l.(*ast.SelectorExpr); ok {
					if x, ok := sel.X.(*ast.Ident); ok && x.Name == recv {
						defaults[l] = true
					}
				}
			}
		}
		return true
	})
}

// recvName is a method receiver's type name, pointer and type parameters
// stripped.
func recvName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return recvName(e.X)
	case *ast.IndexExpr:
		return recvName(e.X)
	case *ast.IndexListExpr:
		return recvName(e.X)
	case *ast.Ident:
		return e.Name
	}
	return "?"
}

// TestSurfaceLedger holds the tree to SURFACE.txt, ROADMAP's surface
// ledger: a name only its own tests reach is dead code unless its row
// says why it stays. A new row, or a row without a reason, fails; a row
// whose name gained a caller (or went) only asks for a regeneration,
// which keeps every reason.
func TestSurfaceLedger(t *testing.T) {
	got := surfaceRows(t)
	text, err := os.ReadFile("SURFACE.txt")
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	reasons := map[string]string{}
	var ledger []string
	for _, l := range strings.Split(string(text), "\n") {
		if l != "" && !strings.HasPrefix(l, "#") {
			name, reason, _ := strings.Cut(l, " ")
			reasons[name] = strings.TrimSpace(reason)
			ledger = append(ledger, name)
		}
	}
	if *updateLOC {
		var out strings.Builder
		out.WriteString(surfaceHeader)
		for _, name := range got {
			out.WriteString(strings.TrimSpace(fmt.Sprintf("%-44s %s", name, reasons[name])) + "\n")
		}
		if err := os.WriteFile("SURFACE.txt", []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	live := map[string]bool{}
	for _, name := range got {
		live[name] = true
		switch reason, ok := reasons[name]; {
		case !ok:
			t.Errorf("%s: no non-test file reaches it; delete it, or give it a row in SURFACE.txt (rerun with -update) with a one-line reason", name)
		case reason == "":
			t.Errorf("%s: its SURFACE.txt row has no reason", name)
		}
	}
	for _, name := range ledger {
		if !live[name] && !*updateLOC {
			t.Logf("%s is reached now, or gone; regenerate SURFACE.txt with -update", name)
		}
	}
}
