package goparse

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
		"package p\ntype Point struct {\n\tX, Y float32\n}",
		"package p\ntype Fitter interface {\n\tFit(n int32) int32\n}",
		"package p\ntype T struct {\n\tM map[string][]int32\n\tA [4]*T\n}",
		"package p\ntype T struct {\n\tC uint16 `mbird:\"char\"`\n}",
		"package p\ntype A struct{ N int32 }\ntype B struct {\n\tA\n\tX int64\n}",
		"package p\nfunc (t *T) M(a int32) int32 { return a }\ntype T struct{ N int32 }",
		"package p\ntype I interface {\n\tJ\n\tM()\n}\ntype J interface{ K() }",
	}
	tokens := []string{
		"type", "struct", "interface", "func", "map", "int32", "string",
		"*", "[", "]", "(", ")", "{", "}", ";", ",", "`mbird:\"char\"`",
		"\n", "x", "2", "package", "=", "chan",
	}
	f := func(seed int64, cut, ins uint8) bool {
		src := seeds[int(uint64(seed)%uint64(len(seeds)))]
		pos := int(cut) % (len(src) + 1)
		tok := tokens[int(ins)%len(tokens)]
		mutated := src[:pos] + " " + tok + " " + src[pos:]
		// Must not panic; errors are fine.
		_, _ = Parse("fuzz.go", mutated)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestParserHandlesGarbage(t *testing.T) {
	garbage := []string{
		"",
		"package",
		"package p\n;;;;",
		"package p\n}{",
		"package p\ntype type type",
		"package p\n" + strings.Repeat("(", 100),
		"package p\n" + strings.Repeat("type T struct { F struct { ", 50),
		"package p\n\x00\x01\x02",
		"package p\ntype T struct{ N int32 }\n\xff\xfe",
		"package p\ntype T struct {\n\tS []byte `unterminated",
		"package p\nfunc f() { { { }",
	}
	for _, src := range garbage {
		_, _ = Parse("garbage.go", src) // must not panic or hang
	}
}

func TestDeeplyNestedTypes(t *testing.T) {
	// Deep but finite nesting must terminate.
	src := "package p\ntype T struct {\n\tF " + strings.Repeat("[]", 50) + "int32\n}"
	_, _ = Parse("deep.go", src)
}

// TestInputBudgets drives each budget axis past its limit: every case
// must surface a typed error wrapping limits.ErrBudget, never a stack
// overflow or a masked syntax diagnosis.
func TestInputBudgets(t *testing.T) {
	cases := []struct {
		name   string
		src    string
		budget limits.Budget
	}{
		{"pointer chain bomb",
			"package p\ntype T struct {\n\tF " + strings.Repeat("*", 500) + "int32\n}",
			limits.Budget{}},
		{"slice nesting bomb",
			"package p\ntype T struct {\n\tF " + strings.Repeat("[]", 500) + "int32\n}",
			limits.Budget{}},
		{"inline struct nesting",
			"package p\ntype T struct { F " + strings.Repeat("struct { F ", 300) + "int32" + strings.Repeat(" }", 300) + " }",
			limits.Budget{}},
		{"map nesting bomb",
			"package p\ntype T struct {\n\tF " + strings.Repeat("map[int32]", 400) + "int32\n}",
			limits.Budget{}},
		{"oversized input",
			"package p\ntype T struct {\n\tAQuiteLongFieldName int32\n}",
			limits.Budget{MaxBytes: 16}},
		{"go/parser nesting bomb",
			"package p\ntype T struct {\n\tF " + strings.Repeat("*", 200000) + "int32\n}",
			limits.Budget{}},
		{"token bomb",
			"package p\ntype T struct {\n\tA, B, C, D, E, F, G, H int32\n}",
			limits.Budget{MaxTokens: 8}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseBudget("hostile.go", tc.src, tc.budget)
			if !errors.Is(err, limits.ErrBudget) {
				t.Errorf("err = %v, want limits.ErrBudget", err)
			}
		})
	}
	// A tight but sufficient budget must not reject honest input.
	if _, err := ParseBudget("ok.go", "package p\ntype T struct {\n\tN int32\n}", limits.Budget{MaxBytes: 64, MaxTokens: 32, MaxDepth: 8}); err != nil {
		t.Errorf("honest input rejected: %v", err)
	}
}

func TestTruncatedInputs(t *testing.T) {
	// Every prefix of a valid unit must error or parse, never panic.
	src := "package p\ntype T struct {\n\tC uint16 `mbird:\"char\"`\n\tM map[string]*T\n}\ntype I interface {\n\tM(a int32) int32\n}\nfunc (t *T) F() {}\n"
	for i := 0; i <= len(src); i++ {
		_, _ = Parse("trunc.go", src[:i])
	}
}
