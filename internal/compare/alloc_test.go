package compare

import (
	"runtime"
	"testing"

	"repro/internal/annotate"
	"repro/internal/idlparse"
	"repro/internal/javaparse"
	"repro/internal/lower"
	"repro/internal/mtype"
	"repro/internal/synth"
	"repro/internal/testutil"
)

// suitePair lowers one class of the 60-class synthesized suite on its Java
// and IDL sides: the same inputs the stubgen_suite benchmark compares.
func suitePair(t *testing.T, class string) (a, b *mtype.Type) {
	t.Helper()
	suite := synth.Generate(synth.VisualAgeScaled(60))
	java, err := javaparse.Parse("java", suite.JavaSource)
	if err != nil {
		t.Fatal(err)
	}
	idl, err := idlparse.Parse("idl", suite.IDLSource)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := annotate.ApplyScript(java, suite.JavaScript); err != nil {
		t.Fatal(err)
	}
	if a, err = lower.New(java).Decl(class); err != nil {
		t.Fatal(err)
	}
	if b, err = lower.New(idl).Decl(class); err != nil {
		t.Fatal(err)
	}
	return a, b
}

// TestAllocsPerComparison pins what one comparison of a service class costs
// the collector, counted per comparison and not per step because what a
// step is changes with the algorithm. The five-map comparer paid about 2.1
// allocations per step on this pair (re-flattening, a path slice per field
// per level, a formatted reason per failed probe); the pair table, the
// flatten memo and on-demand diagnostics brought it to 2 177, and stacks
// of the Comparer for the matchers' scratch to 86. What is left is what
// the Match keeps: the table, sized from the node counts Validate
// recorded, and the arena chunks its pair states, decisions and
// flattenings (leaves only) are carved from. The scratch stacks come from
// a pool, a pair refused at its first step takes no entry, and the
// semantic maps wait for a registration: 39 allocations.
func TestAllocsPerComparison(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race-detector instrumentation inflates allocation counts")
	}
	a, b := suitePair(t, "S0")
	steps := 0
	allocs := testing.AllocsPerRun(20, func() {
		c := NewComparer(DefaultRules())
		if _, ok := c.Equivalent(a, b); !ok {
			t.Fatal("generated pair must be equivalent")
		}
		steps = c.Steps()
	})
	t.Logf("%.0f allocations, %d steps", allocs, steps)
	const ceiling = 39
	if allocs > ceiling {
		t.Fatalf("%.0f allocations per comparison, ceiling %d", allocs, ceiling)
	}
}

// TestAllocBytesPerComparison pins the bytes of the same comparison:
// 291 KB when each flattening also copied out its live leaves' indices,
// nodes and keys and the pair table was sized at one entry a node. Most
// of what is left is the leaves and index paths the decisions hand to the
// planner. It reads about 175 000; the ceiling leaves room for a
// collection that empties the scratch pool mid-loop and for the runtime's
// map sizing to move between Go releases.
func TestAllocBytesPerComparison(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race-detector instrumentation inflates allocation counts")
	}
	a, b := suitePair(t, "S0")
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	compare := func() {
		if _, ok := NewComparer(DefaultRules()).Equivalent(a, b); !ok {
			t.Fatal("generated pair must be equivalent")
		}
	}
	compare() // warm the scratch pool
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		compare()
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("%d bytes per comparison", bytes)
	const ceiling = 190_000
	if bytes > ceiling {
		t.Fatalf("%d bytes per comparison, ceiling %d", bytes, ceiling)
	}
}

// TestAllocsPairTableHit: a step that finds its answer in the pair table —
// proven, failed, or the same node on both sides — allocates nothing.
func TestAllocsPairTableHit(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race-detector instrumentation inflates allocation counts")
	}
	a, b := suitePair(t, "S0")
	c := NewComparer(DefaultRules())
	if _, ok := c.Equivalent(a, b); !ok {
		t.Fatal("generated pair must be equivalent")
	}
	other := i8()
	if _, ok := c.Equivalent(a, other); ok {
		t.Fatal("a service port cannot match an integer")
	}
	for name, probe := range map[string]func() bool{
		"proven": func() bool { ok, _ := c.compare(a, b, ModeEqual); return ok },
		"failed": func() bool { ok, _ := c.compare(a, other, ModeEqual); return !ok },
		"same":   func() bool { ok, _ := c.compare(a, a, ModeEqual); return ok },
	} {
		if !probe() {
			t.Fatalf("%s: wrong answer", name)
		}
		if allocs := testing.AllocsPerRun(100, func() { probe() }); allocs != 0 {
			t.Errorf("%s: a pair-table hit allocates %.1f times", name, allocs)
		}
	}
}

// TestAllocsFailedProbe: a primitive probe that fails does no fmt work —
// it allocates nothing even with the cache off, when every probe runs the
// comparison again — and FailureReason and Explain still render the
// strings the five-map comparer formatted eagerly (captured at 8f8aa6e).
func TestAllocsFailedProbe(t *testing.T) {
	uncached := DefaultRules()
	uncached.Cache = false
	for _, tc := range []struct {
		a, b            *mtype.Type
		reason, explain string
	}{
		{i8(), i16(), "integer ranges: [-128..127] vs [-32768..32767]", "integer ~ integer: "},
		{mtype.NewIntegerBits(64, false), mtype.NewIntegerBits(64, true),
			"integer ranges: [0..18446744073709551615] vs [-9223372036854775808..9223372036854775807]", "integer ~ integer: "},
		{ch(), mtype.NewCharacter(mtype.RepUnicode), "character repertoires: latin1 vs unicode", "character ~ character: "},
		{f32(), f64(), "real precision: (24,8) vs (53,11)", "real ~ real: "},
	} {
		c := NewComparer(uncached)
		if ok, _ := c.compare(tc.a, tc.b, ModeEqual); ok {
			t.Fatalf("%s: probe must fail", tc.reason)
		}
		if !testutil.RaceEnabled {
			if allocs := testing.AllocsPerRun(100, func() { c.compare(tc.a, tc.b, ModeEqual) }); allocs != 0 {
				t.Errorf("%s: a failed probe allocates %.1f times", tc.reason, allocs)
			}
		}
		if got := c.FailureReason(tc.a, tc.b, ModeEqual); got != tc.reason {
			t.Errorf("FailureReason = %q, want %q", got, tc.reason)
		}
		if got, want := c.Explain(tc.a, tc.b, ModeEqual), tc.explain+tc.reason+"\n"; got != want {
			t.Errorf("Explain = %q, want %q", got, want)
		}
	}
}
