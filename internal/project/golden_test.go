package project

import (
	"flag"
	"strings"
	"testing"

	"repro/internal/cmem"
	"repro/internal/core"
	"repro/internal/testutil"
)

var _ = flag.Bool("update", false, "rewrite testdata/save.golden from Save under test")

// goldenSessions are the sessions save.golden pins: the annotated
// session of the tests above, Figure 1's Java (javaparse declares
// java.util.Vector and Vector as one node), and per frontend one session
// holding, as one universe each, every source that frontend's
// declaration golden pins and that parses.
func goldenSessions(t *testing.T) []struct {
	label string
	s     *core.Session
} {
	t.Helper()
	figure1 := core.NewSession()
	if err := figure1.LoadJava("java", figure1Java); err != nil {
		t.Fatal(err)
	}
	out := []struct {
		label string
		s     *core.Session
	}{{"annotated session", annotatedSession(t)}, {"Figure 1 Java", figure1}}
	frontends := []struct {
		label string
		pins  testutil.Pins
		dir   string
		load  func(s *core.Session, name, src string) error
	}{
		{"c", testutil.CPins, "../cparse", func(s *core.Session, name, src string) error { return s.LoadC(name, src, cmem.ILP32) }},
		{"java", testutil.JavaPins, "../javaparse", (*core.Session).LoadJava},
		{"idl", testutil.IDLPins, "../idlparse", (*core.Session).LoadIDL},
		{"go", testutil.GoPins, "../goparse", (*core.Session).LoadGo},
	}
	for _, f := range frontends {
		s := core.NewSession()
		for _, src := range f.pins.Sources(t, f.dir, func(string) bool { return true }) {
			_ = f.load(s, src.Label, src.Src) // a source that does not parse is not pinned
		}
		out = append(out, struct {
			label string
			s     *core.Session
		}{f.label + " frontend's pinned sources", s})
	}
	return out
}

// TestSaveGolden pins the bytes Save writes for goldenSessions:
// testdata/save.golden holds each session's file under a "== label" line.
func TestSaveGolden(t *testing.T) {
	var b strings.Builder
	for _, g := range goldenSessions(t) {
		data, err := Save(g.s)
		if err != nil {
			t.Fatalf("%s: %v", g.label, err)
		}
		b.WriteString("== " + g.label + "\n")
		b.Write(data)
		b.WriteString("\n")
	}
	testutil.CheckGolden(t, "save.golden", b.String())
}
