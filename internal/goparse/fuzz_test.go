package goparse

import (
	"strings"
	"testing"

	"repro/internal/limits"
	"repro/internal/testutil"
)

// FuzzGoParse feeds arbitrary bytes to the Go parser: under a small
// budget it must end as under the default one, or fail with the typed
// budget sentinel (testutil.BudgetLaw), and never panic or hang.
func FuzzGoParse(f *testing.F) {
	f.Add("package p\ntype Point struct {\n\tX, Y float32\n}")
	f.Add("package p\ntype Fitter interface {\n\tFit(n int32) int32\n}")
	f.Add("package p\ntype T struct {\n\tM map[string][]int32\n\tA [4]*T\n}")
	f.Add("package p\ntype T struct {\n\tC uint16 `mbird:\"char\"`\n}")
	f.Add("package p\ntype A struct{ N int32 }\ntype B struct {\n\tA\n\tX int64\n}")
	f.Add("package p\nfunc (t *T) M(a int32) int32 { return a }\ntype T struct{ N int32 }")
	f.Add("package p\ntype T struct {\n\tF " + strings.Repeat("[]", 40) + "int32\n}")
	f.Add("package p\ntype F struct{ X budget.T }") // an error naming a package "budget" is no budget error
	f.Add("package p\n" + strings.Repeat("type T struct { F struct { ", 30) + "int32" + strings.Repeat(" }", 30))
	f.Fuzz(func(t *testing.T, src string) {
		testutil.BudgetLaw(t, func(b limits.Budget) error {
			_, err := ParseBudget("fuzz.go", src, b)
			return err
		})
	})
}
