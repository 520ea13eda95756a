package mtype_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/mtype"
	"repro/internal/synth"
	"repro/internal/testutil"
)

// TestAllocsSizeValidated: Size of a root Validate passed reads the count
// Validate recorded, so it allocates nothing, and it is the count a walk
// of the graph finds.
func TestAllocsSizeValidated(t *testing.T) {
	suite := synth.Generate(synth.VisualAgeScaled(60))
	sess := core.NewSession()
	if err := sess.LoadSource("java", "java", "", suite.JavaSource); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Annotate("java", suite.JavaScript); err != nil {
		t.Fatal(err)
	}
	for _, name := range append(append([]string(nil), suite.DataClassNames...), suite.ServiceClassNames...) {
		root, err := sess.Mtype("java", name) // lowering validates the root
		if err != nil {
			t.Fatal(err)
		}
		if root.ValidatedSize() == 0 {
			t.Fatalf("%s: lowered root carries no validated size", name)
		}
		if got, want := mtype.Size(root), len(mtype.Nodes(root)); got != want {
			t.Errorf("%s: Size = %d, %d nodes reachable", name, got, want)
		}
		if testutil.RaceEnabled {
			continue
		}
		if allocs := testing.AllocsPerRun(10, func() { mtype.Size(root) }); allocs != 0 {
			t.Errorf("%s: Size of a validated root allocates %.1f times", name, allocs)
		}
	}
}
