package idlparse

import (
	"strings"
	"testing"

	"repro/internal/limits"
	"repro/internal/testutil"
)

// FuzzIDLParse feeds arbitrary bytes to the IDL parser: under a small
// budget it must end as under the default one, or fail with the typed
// budget sentinel (testutil.BudgetLaw), and never panic or hang.
func FuzzIDLParse(f *testing.F) {
	f.Add(`interface I { void f(in long x, out double y); };`)
	f.Add(`module M { struct S { float a; }; typedef sequence<S> Ss; };`)
	f.Add(`union U switch (long) { case 1: long a; default: float b; };`)
	f.Add(`enum E { a, b, c }; typedef E Es[4];`)
	f.Add(`interface A : B { readonly attribute string name; };`)
	f.Add("typedef " + strings.Repeat("sequence<", 40) + "long" + strings.Repeat(">", 40) + " t;")
	f.Fuzz(func(t *testing.T, src string) {
		testutil.BudgetLaw(t, func(b limits.Budget) error {
			_, err := ParseBudget("fuzz.idl", src, b)
			return err
		})
	})
}
