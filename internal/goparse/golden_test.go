package goparse_test

import (
	"flag"
	"strings"
	"testing"

	"repro/internal/goparse"
	"repro/internal/stype"
	"repro/internal/testutil"
)

var _ = flag.Bool("update", false, "rewrite testdata/decls.golden from the parser under test")

// pinSources gathers the sources testutil.GoPins names: each string
// constant beginning "package" in goparse_test.go, fuzz_test.go and
// examples/go-idl, the FuzzGoParse corpus, and three synthesized suites.
func pinSources(t *testing.T) []testutil.Source {
	t.Helper()
	return testutil.GoPins.Sources(t, ".", func(s string) bool { return strings.HasPrefix(s, "package") })
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
