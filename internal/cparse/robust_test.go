package cparse

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/limits"
)

// TestParserNeverPanics drives the parser with mutated fragments of valid
// input: every outcome must be a parse result or an error, never a panic
// or a hang.
func TestParserNeverPanics(t *testing.T) {
	seeds := []string{
		`typedef float point[2];`,
		`void fitter(point pts[], int count, point *start, point *end);`,
		`struct P { float x, y; int flags : 3; };`,
		`union U { int i; float f; };`,
		`enum E { A, B = 2, C };`,
		`typedef void (*cb)(int, float);`,
		`int (*poa)[3];`,
	}
	tokens := []string{
		"typedef", "struct", "union", "enum", "int", "float", "void",
		"*", "[", "]", "(", ")", "{", "}", ";", ",", ":", "=", "x", "2",
		"unsigned", "long", "const", "...",
	}
	f := func(seed int64, cut, ins uint8) bool {
		src := seeds[int(uint64(seed)%uint64(len(seeds)))]
		pos := int(cut) % (len(src) + 1)
		tok := tokens[int(ins)%len(tokens)]
		mutated := src[:pos] + " " + tok + " " + src[pos:]
		// Must not panic; errors are fine.
		_, _ = Parse("fuzz.h", mutated, Config{})
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
	";;;;",
	"}{",
	"typedef typedef typedef",
	strings.Repeat("(", 100),
	strings.Repeat("struct A { struct B { ", 50),
	"\x00\x01\x02",
	"typedef int x; \xff\xfe",
	"int f(int f(int f(int)));",
}

func TestParserHandlesGarbage(t *testing.T) {
	for _, src := range garbage {
		_, _ = Parse("garbage.h", src, Config{}) // must not panic or hang
	}
}

func TestDeeplyNestedDeclarators(t *testing.T) {
	// Deep but finite nesting must terminate.
	src := "typedef int " + strings.Repeat("(*", 50) + "x" + strings.Repeat(")", 50) + ";"
	_, _ = Parse("deep.h", src, Config{})
}

// budgetCases drive each budget axis past its limit.
var budgetCases = []struct {
	name   string
	src    string
	budget limits.Budget
}{
	{"deep declarator nesting",
		"typedef int " + strings.Repeat("(*", 300) + "x" + strings.Repeat(")", 300) + ";",
		limits.Budget{}},
	{"pointer chain bomb",
		"typedef int " + strings.Repeat("*", 500) + "x;",
		limits.Budget{}},
	{"deep struct nesting",
		strings.Repeat("struct A { ", 300) + "int x;" + strings.Repeat(" };", 300),
		limits.Budget{}},
	{"array suffix bomb",
		"typedef int x" + strings.Repeat("[2]", 300) + ";",
		limits.Budget{}},
	{"oversized input",
		"typedef int a_rather_long_name_for_an_int;",
		limits.Budget{MaxBytes: 16}},
	{"token bomb",
		"typedef struct { int a, b, c, d, e, f, g, h; } s;",
		limits.Budget{MaxTokens: 8}},
}

// TestInputBudgets drives each budget axis past its limit: every case
// must surface a typed error wrapping limits.ErrBudget, never a stack
// overflow or a masked syntax diagnosis.
func TestInputBudgets(t *testing.T) {
	for _, tc := range budgetCases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse("hostile.h", tc.src, Config{Budget: tc.budget})
			if !errors.Is(err, limits.ErrBudget) {
				t.Errorf("err = %v, want limits.ErrBudget", err)
			}
		})
	}
	// A tight but sufficient budget must not reject honest input.
	if _, err := Parse("ok.h", "typedef int t;", Config{Budget: limits.Budget{MaxBytes: 64, MaxTokens: 16, MaxDepth: 8}}); err != nil {
		t.Errorf("honest input rejected: %v", err)
	}
}
