package mtype_test

import (
	"runtime/debug"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/mtype"
	"repro/internal/synth"
)

// TestStringTerminatesOnEveryNode prints every node of the Figure 8 list
// and of every declaration the synthesized suites lower, in each language.
// A node below a μ binder — a list's unfolded body or its cons record, the
// forms plan nodes and comparer decisions hold — meets that binder once
// before re-entering it, and a print that leaves it unlabelled recurses
// without end: a stack overflow, which no recover catches. The stack is
// capped here so that such a print fails fast.
func TestStringTerminatesOnEveryNode(t *testing.T) {
	defer debug.SetMaxStack(debug.SetMaxStack(64 << 20))
	list := mtype.NewList(mtype.NewFloat32())
	if got, want := list.Body().String(), "choice(unit, record(real(24,8), μL1.choice(unit, record(real(24,8), L1))))"; got != want {
		t.Errorf("the Figure 8 list's body prints %q, want %q", got, want)
	}
	graphs := []*mtype.Type{list}
	for _, cfg := range []synth.Config{synth.VisualAgeMiniature(), synth.NotesAPI(), synth.Collab(), synth.VisualAgeScaled(60)} {
		suite := synth.Generate(cfg)
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
			for _, name := range append(append([]string(nil), suite.DataClassNames...), suite.ServiceClassNames...) {
				if mt, err := sess.Mtype(l.lang, name); err == nil { // C has no service classes
					graphs = append(graphs, mt)
				}
			}
		}
	}
	nodes := 0
	for _, g := range graphs {
		for _, n := range mtype.Nodes(g) {
			if s := n.String(); s == "" || strings.Contains(s, "<invalid>") {
				t.Fatalf("a %s node prints %q", n.Kind(), s)
			}
			nodes++
		}
	}
	t.Logf("%d nodes of %d graphs print", nodes, len(graphs))
	if len(graphs) < 4*60 {
		t.Fatalf("printed %d graphs; the suites lower more than that", len(graphs))
	}
}
