package javaparse

import (
	"strings"
	"testing"

	"repro/internal/limits"
	"repro/internal/testutil"
)

// FuzzJavaParse feeds arbitrary bytes to the Java parser: under a small
// budget it must end as under the default one, or fail with the typed
// budget sentinel (testutil.BudgetLaw), and never panic or hang.
func FuzzJavaParse(f *testing.F) {
	f.Add(`public class Point { private float x; private float y; }`)
	f.Add(`public interface I { Line fitter(PointVector pts); }`)
	f.Add(`class A extends B implements C, D { int x = f(1, g(2)); }`)
	f.Add(`class C { static { init(); } C() {} void m() throws E { } }`)
	f.Add(`package a.b.c; import java.util.*; class X {}`)
	f.Add("class C { int" + strings.Repeat("[]", 40) + " x; }")
	f.Fuzz(func(t *testing.T, src string) {
		testutil.BudgetLaw(t, func(b limits.Budget) error {
			_, err := ParseBudget("Fuzz.java", src, b)
			return err
		})
	})
}
