package repro_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// TestLiveCountersAtomic fails when a non-test file reads or writes a
// field of a counter block named live (x.live.F) other than through its
// address. A component keeps its counters as plain fields of its stats
// struct (package metrics), so the compiler no longer refuses a plain
// access the way it would for an atomic.Int64: every access has to take
// the field's address for sync/atomic or metrics.Load.
func TestLiveCountersAtomic(t *testing.T) {
	for _, paths := range packageFiles(t, "internal/*", "cmd/*", "examples/*") {
		for _, p := range paths {
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			addressed := map[ast.Expr]bool{}
			ast.Inspect(f, func(n ast.Node) bool {
				if u, ok := n.(*ast.UnaryExpr); ok && u.Op == token.AND {
					addressed[u.X] = true
				}
				return true
			})
			ast.Inspect(f, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok && !addressed[sel] {
					if in, ok := sel.X.(*ast.SelectorExpr); ok && in.Sel.Name == "live" {
						t.Errorf("%s: live.%s accessed without taking its address", fset.Position(sel.Pos()), sel.Sel.Name)
					}
				}
				return true
			})
		}
	}
}
