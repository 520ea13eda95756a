package javaparse

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/limits"
)

// TestParserNeverPanics mutates valid Java fragments; parsing must never
// panic or hang.
func TestParserNeverPanics(t *testing.T) {
	seeds := []string{
		`public class Point { private float x; private float y; }`,
		`public interface I { Line fitter(PointVector pts); }`,
		`class A extends B implements C, D { int x = f(1, g(2)); }`,
		`class C { static { init(); } C() {} void m() throws E { } }`,
		`package a.b.c; import java.util.*; class X {}`,
	}
	tokens := []string{
		"class", "interface", "extends", "{", "}", "(", ")", ";", ",",
		"int", "float", "[", "]", "=", "static", ".", "x", "public",
	}
	f := func(seed int64, cut, ins uint8) bool {
		src := seeds[int(uint64(seed)%uint64(len(seeds)))]
		pos := int(cut) % (len(src) + 1)
		tok := tokens[int(ins)%len(tokens)]
		_, _ = Parse("Fuzz.java", src[:pos]+" "+tok+" "+src[pos:])
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// garbage is malformed input: parsing it must end, with or without an
// error, and never panic or hang.
var garbage = []string{
	"",
	"}}}}",
	"class",
	"class X {",
	strings.Repeat("class A { ", 50),
	"class C { int x = { { { ; } } } }",
	"\x00class C {}",
}

func TestParserHandlesGarbage(t *testing.T) {
	for _, src := range garbage {
		_, _ = Parse("Garbage.java", src)
	}
}

// budgetCases drive each budget axis past its limit.
var budgetCases = []struct {
	name   string
	src    string
	budget limits.Budget
}{
	{"array dimension bomb on a field",
		"class C { int" + strings.Repeat("[]", 300) + " x; }",
		limits.Budget{}},
	{"array dimension bomb on a parameter",
		"class C { void m(int" + strings.Repeat("[]", 300) + " x) {} }",
		limits.Budget{}},
	{"oversized input",
		"class TheNameAloneBlowsTheBudget {}",
		limits.Budget{MaxBytes: 16}},
	{"token bomb",
		"class C { int a; int b; int c; int d; int e; }",
		limits.Budget{MaxTokens: 8}},
}

// TestInputBudgets drives each budget axis past its limit: every case
// must surface a typed error wrapping limits.ErrBudget.
func TestInputBudgets(t *testing.T) {
	for _, tc := range budgetCases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseBudget("Hostile.java", tc.src, tc.budget)
			if !errors.Is(err, limits.ErrBudget) {
				t.Errorf("err = %v, want limits.ErrBudget", err)
			}
		})
	}
	if _, err := ParseBudget("Ok.java", "class C { int x; }", limits.Budget{MaxBytes: 64, MaxTokens: 16, MaxDepth: 8}); err != nil {
		t.Errorf("honest input rejected: %v", err)
	}
}
