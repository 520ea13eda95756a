package cparse

import (
	"strings"
	"testing"

	"repro/internal/limits"
	"repro/internal/testutil"
)

// FuzzCParse feeds arbitrary bytes to the C parser: under a small
// budget it must end as under the default one, or fail with the typed
// budget sentinel (testutil.BudgetLaw), and never panic or hang.
func FuzzCParse(f *testing.F) {
	f.Add(`typedef float point[2];`)
	f.Add(`void fitter(point pts[], int count, point *start, point *end);`)
	f.Add(`struct P { float x, y; int flags : 3; };`)
	f.Add(`union U { int i; float f; };`)
	f.Add(`enum E { A, B = 2, C };`)
	f.Add(`typedef void (*cb)(int, float);`)
	f.Add("typedef int " + strings.Repeat("(*", 40) + "x" + strings.Repeat(")", 40) + ";")
	f.Add(strings.Repeat("struct A { ", 30) + "int x;" + strings.Repeat(" };", 30))
	f.Fuzz(func(t *testing.T, src string) {
		testutil.BudgetLaw(t, func(b limits.Budget) error {
			_, err := Parse("fuzz.h", src, Config{Budget: b})
			return err
		})
	})
}
