package javaparse

import (
	"flag"
	"strings"
	"testing"

	"repro/internal/stype"
	"repro/internal/testutil"
)

var _ = flag.Bool("update", false, "rewrite testdata/decls.golden and testdata/errors.golden from the parser under test")

func pinParse(src string) (*stype.Universe, error) { return Parse("Pin.java", src) }

// pinSources gathers the sources testutil.JavaPins names that Parse
// accepts with a declaration of its own (the corpus and the synthesized
// suites whole).
func pinSources(t *testing.T) []testutil.Source {
	t.Helper()
	builtins := len(MustParse("").Names())
	return testutil.JavaPins.Sources(t, ".", func(src string) bool {
		u, err := pinParse(src)
		return err == nil && len(u.Names()) > builtins
	})
}

// TestDeclarationsGolden pins every declaration Parse returns for the
// sources above, and the fingerprints of their Mtypes: a change of
// frontend has to leave testdata/decls.golden byte-identical.
func TestDeclarationsGolden(t *testing.T) {
	testutil.CheckGolden(t, "decls.golden", testutil.PinDecls(pinSources(t), pinParse))
}

// TestErrorsGolden pins the exact text of every error TestErrors,
// TestInputBudgets and TestParserHandlesGarbage provoke.
func TestErrorsGolden(t *testing.T) {
	var b strings.Builder
	for _, c := range errorCases {
		_, err := Parse("T.java", c.src)
		testutil.PinError(&b, "TestErrors", c.src, err)
	}
	for _, tc := range budgetCases {
		_, err := ParseBudget("Hostile.java", tc.src, tc.budget)
		testutil.PinError(&b, "TestInputBudgets", tc.name, err)
	}
	for _, src := range garbage {
		_, err := Parse("Garbage.java", src)
		testutil.PinError(&b, "TestParserHandlesGarbage", src, err)
	}
	testutil.CheckGolden(t, "errors.golden", b.String())
}
