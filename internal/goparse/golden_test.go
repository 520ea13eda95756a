package goparse_test

import (
	"flag"
	"fmt"
	"strings"
	"testing"

	"repro/internal/goparse"
	"repro/internal/stype"
	"repro/internal/synth"
	"repro/internal/testutil"
)

var _ = flag.Bool("update", false, "rewrite testdata/decls.golden from the parser under test")

// pinSources gathers every Go source the package's tests name: each
// string constant beginning "package" in goparse_test.go and
// fuzz_test.go, examples/go-idl's goStock, the FuzzGoParse corpus, and
// the Go side of three 60-class synthesized suites.
func pinSources(t *testing.T) []testutil.Source {
	t.Helper()
	isGo := func(s string) bool { return strings.HasPrefix(s, "package") }
	var out []testutil.Source
	for _, file := range []string{"goparse_test.go", "fuzz_test.go"} {
		out = append(out, testutil.LiteralSources(t, file, file, isGo)...)
	}
	out = append(out, testutil.LiteralSources(t, "../../examples/go-idl/main.go", "main.go", isGo)...)
	out = append(out, testutil.CorpusSources(t, "FuzzGoParse")...)
	for _, seed := range []uint64{7, 11, 60} {
		cfg := synth.VisualAgeScaled(60)
		cfg.Seed = seed
		out = append(out, testutil.Source{Label: fmt.Sprintf("synth VisualAgeScaled(60) seed %d", seed), Src: synth.Generate(cfg).GoSource})
	}
	return out
}

// TestDeclarationsGolden pins every declaration Parse returns for the
// sources above, and the fingerprints of their Mtypes: a change of
// frontend has to leave testdata/decls.golden byte-identical.
func TestDeclarationsGolden(t *testing.T) {
	got := testutil.PinDecls(pinSources(t), func(src string) (*stype.Universe, error) {
		return goparse.Parse("pin.go", src)
	})
	testutil.CheckGolden(t, "decls.golden", got)
}
