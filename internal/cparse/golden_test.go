package cparse

import (
	"flag"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/stype"
	"repro/internal/synth"
	"repro/internal/testutil"
)

var _ = flag.Bool("update", false, "rewrite testdata/decls.golden and testdata/errors.golden from the parser under test")

func pinParse(src string) (*stype.Universe, error) { return Parse("pin.h", src, Config{}) }

// pinSources gathers every C source the package's tests and the
// examples name that Parse accepts with a declaration of its own, the
// FuzzCParse corpus, and the C side of three 60-class synthesized suites.
func pinSources(t *testing.T) []testutil.Source {
	t.Helper()
	builtins := len(MustParse("").Names())
	declares := func(src string) bool {
		u, err := pinParse(src)
		return err == nil && len(u.Names()) > builtins
	}
	var out []testutil.Source
	for _, file := range []string{"cparse_test.go", "robust_test.go", "fuzz_test.go"} {
		out = append(out, testutil.LiteralSources(t, file, file, declares)...)
	}
	examples, err := filepath.Glob("../../examples/*/main.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, file := range examples {
		label := filepath.Join(filepath.Base(filepath.Dir(file)), "main.go")
		out = append(out, testutil.LiteralSources(t, file, label, declares)...)
	}
	out = append(out, testutil.CorpusSources(t, "FuzzCParse")...)
	for _, seed := range []uint64{7, 11, 60} {
		cfg := synth.VisualAgeScaled(60)
		cfg.Seed = seed
		out = append(out, testutil.Source{Label: fmt.Sprintf("synth VisualAgeScaled(60) seed %d", seed), Src: synth.Generate(cfg).CSource})
	}
	return out
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
		_, err := Parse("t.h", c.src, Config{})
		testutil.PinError(&b, "TestErrors", c.src, err)
	}
	for _, tc := range budgetCases {
		_, err := Parse("hostile.h", tc.src, Config{Budget: tc.budget})
		testutil.PinError(&b, "TestInputBudgets", tc.name, err)
	}
	for _, src := range garbage {
		_, err := Parse("garbage.h", src, Config{})
		testutil.PinError(&b, "TestParserHandlesGarbage", src, err)
	}
	testutil.CheckGolden(t, "errors.golden", b.String())
}
