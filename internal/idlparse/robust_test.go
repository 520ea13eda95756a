package idlparse

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/limits"
)

// TestParserNeverPanics mutates valid IDL fragments; parsing must never
// panic or hang.
func TestParserNeverPanics(t *testing.T) {
	seeds := []string{
		`interface I { void f(in long x, out double y); };`,
		`module M { struct S { float a; }; typedef sequence<S> Ss; };`,
		`union U switch (long) { case 1: long a; default: float b; };`,
		`enum E { a, b, c }; typedef E Es[4];`,
		`interface A : B { readonly attribute string name; };`,
	}
	tokens := []string{
		"interface", "module", "struct", "{", "}", "(", ")", ";", ",",
		"in", "out", "long", "sequence", "<", ">", "::", ":", "x",
	}
	f := func(seed int64, cut, ins uint8) bool {
		src := seeds[int(uint64(seed)%uint64(len(seeds)))]
		pos := int(cut) % (len(src) + 1)
		tok := tokens[int(ins)%len(tokens)]
		_, _ = Parse("fuzz.idl", src[:pos]+" "+tok+" "+src[pos:])
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
	"};",
	"module",
	"module M {",
	strings.Repeat("module M { ", 60),
	"interface I { void f(in sequence<sequence<sequence<long>>> x); };",
	"\xff\xfeinterface I {};",
}

func TestParserHandlesGarbage(t *testing.T) {
	for _, src := range garbage {
		_, _ = Parse("garbage.idl", src)
	}
}

// budgetCases drive each budget axis past its limit.
var budgetCases = []struct {
	name   string
	src    string
	budget limits.Budget
}{
	{"deep module nesting",
		strings.Repeat("module M { ", 300) + "typedef long t;" + strings.Repeat(" };", 300),
		limits.Budget{}},
	{"deep struct nesting",
		strings.Repeat("struct S { ", 300) + "long x;" + strings.Repeat(" };", 300),
		limits.Budget{}},
	{"sequence nesting bomb",
		"typedef " + strings.Repeat("sequence<", 300) + "long" + strings.Repeat(">", 300) + " t;",
		limits.Budget{}},
	{"array suffix bomb",
		"typedef long t" + strings.Repeat("[2]", 300) + ";",
		limits.Budget{}},
	{"oversized input",
		"typedef long a_rather_long_name_for_a_long;",
		limits.Budget{MaxBytes: 16}},
	{"token bomb",
		"struct S { long a; long b; long c; long d; };",
		limits.Budget{MaxTokens: 8}},
}

// TestInputBudgets drives each budget axis past its limit: every case
// must surface a typed error wrapping limits.ErrBudget.
func TestInputBudgets(t *testing.T) {
	for _, tc := range budgetCases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseBudget("hostile.idl", tc.src, tc.budget)
			if !errors.Is(err, limits.ErrBudget) {
				t.Errorf("err = %v, want limits.ErrBudget", err)
			}
		})
	}
	if _, err := ParseBudget("ok.idl", "typedef long t;", limits.Budget{MaxBytes: 64, MaxTokens: 16, MaxDepth: 8}); err != nil {
		t.Errorf("honest input rejected: %v", err)
	}
}
