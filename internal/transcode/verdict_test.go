package transcode_test

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/synth"
)

var updateVerdicts = flag.Bool("update-verdicts", false, "rewrite testdata/verdicts.txt from this tree")

const verdictsPath = "testdata/verdicts.txt"

// verdictSuites are the synthesized suites whose pairs the verdict golden
// pins: the VisualAge miniature, the Notes API, the collab message set and
// the 60-class scaled VisualAge suite.
var verdictSuites = []struct {
	name string
	cfg  synth.Config
}{{"miniature", synth.VisualAgeMiniature()}, {"notes", synth.NotesAPI()}, {"collab", synth.Collab()}, {"scaled60", synth.VisualAgeScaled(60)}}

// TestVerdictGolden pins what Compile makes of every pair of the suites
// the default comparer accepts, each rendered language against IDL: the
// fused program, or the refusal the tree rung carries. A pair that moves
// between the two, or a refusal whose text changes, shows in the diff of
// testdata/verdicts.txt.
func TestVerdictGolden(t *testing.T) {
	var lines []string
	for _, u := range verdictSuites {
		suite := synth.Generate(u.cfg)
		sess := core.NewSession()
		for _, l := range []struct{ lang, src, script string }{
			{"java", suite.JavaSource, suite.JavaScript}, {"go", suite.GoSource, suite.GoScript},
			{"c", suite.CSource, suite.CScript}, {"idl", suite.IDLSource, ""},
		} {
			if err := sess.LoadSource(l.lang, l.lang, "ilp32", l.src); err != nil {
				t.Fatal(err)
			}
			if _, err := sess.Annotate(l.lang, l.script); err != nil {
				t.Fatal(err)
			}
		}
		all := append(append([]string(nil), suite.DataClassNames...), suite.ServiceClassNames...)
		for _, side := range []struct {
			lang  string
			names []string
		}{{"java", all}, {"go", all}, {"c", suite.DataClassNames}} {
			for _, name := range side.names {
				v, err := sess.Compare(side.lang, name, "idl", name)
				if err != nil {
					t.Fatal(err)
				}
				if v.Relation != core.RelEquivalent && v.Relation != core.RelSubtypeAB {
					continue
				}
				xc, err := sess.BuildTranscoder(v)
				if err != nil {
					t.Fatalf("%s %s %s: %v", u.name, side.lang, name, err)
				}
				verdict := "fused"
				if xc.Refusal() != "" {
					verdict = "tree: " + xc.Refusal()
				}
				lines = append(lines, fmt.Sprintf("%s %s→idl %s %s", u.name, side.lang, name, verdict))
			}
		}
	}
	got := strings.Join(lines, "\n") + "\n"
	if *updateVerdicts {
		head := "# suite lang→idl decl verdict — written by go test -run TestVerdictGolden -update-verdicts\n"
		if err := os.WriteFile(verdictsPath, []byte(head+got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	text, err := os.ReadFile(verdictsPath)
	if err != nil {
		t.Fatalf("golden file: %v (run with -update-verdicts)", err)
	}
	want := string(text[strings.IndexByte(string(text), '\n')+1:])
	if got != want {
		wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
		for i := 0; i < len(wl) || i < len(gl); i++ {
			if i >= len(wl) || i >= len(gl) || wl[i] != gl[i] {
				t.Fatalf("verdicts differ at line %d:\n got  %q\n want %q", i+2, at(gl, i), at(wl, i))
			}
		}
	}
}

func at(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return "(end)"
}
