package testutil

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// RefusalSites holds a package's refusal table to its refusal sites, the
// calls of the function fn in the package's non-test files (in the
// working directory). Each site takes a literal format string, no two
// sites share one, every site has a row and every row has a site: a
// refusal no pair reaches is dead code, and one no test reaches is an
// unpinned fallback. rows are the table's format strings.
func RefusalSites(t *testing.T, fn string, rows []string) {
	t.Helper()
	files, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	sites := make(map[string]bool)
	for _, f := range files {
		if !strings.HasSuffix(f.Name(), ".go") || strings.HasSuffix(f.Name(), "_test.go") {
			continue
		}
		file, err := parser.ParseFile(fset, f.Name(), nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if id, ok := call.Fun.(*ast.Ident); !ok || id.Name != fn {
				return true
			}
			lit, ok := call.Args[0].(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				t.Errorf("%s: %s takes a literal format string so the table can name it", fset.Position(call.Pos()), fn)
				return true
			}
			site, _ := strconv.Unquote(lit.Value)
			if sites[site] {
				t.Errorf("%s: a second site says %q; one row cannot tell them apart", fset.Position(call.Pos()), site)
			}
			sites[site] = true
			if !slices.Contains(rows, site) {
				t.Errorf("%s: refusal site %q has no row in the refusal table", fset.Position(call.Pos()), site)
			}
			return true
		})
	}
	for _, row := range rows {
		if !sites[row] {
			t.Errorf("the refusal table names %q, which no %s site says", row, fn)
		}
	}
	if len(sites) == 0 {
		t.Fatalf("found no call of %s; the check is looking in the wrong place", fn)
	}
}
