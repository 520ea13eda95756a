package compare

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/mtype"
)

// wideRecord is a record whose flattening has 2^(depth+1) leaves: each
// level holds the one below twice.
func wideRecord(depth int) *mtype.Type {
	r := mtype.RecordOf(i8(), i8())
	for range depth {
		r = mtype.RecordOf(r, r)
	}
	return r
}

// diagnose runs the tool's comparison sequence (equivalence, then
// subtyping each way) and renders every diagnostic a caller can read:
// Explain in both modes, then each pair of nodes of the two graphs that
// has a FailureReason, numbered in preorder (a's nodes, then b's).
func diagnose(a, b *mtype.Type) string {
	c := NewComparer(DefaultRules())
	if _, ok := c.Equivalent(a, b); !ok {
		if _, ok := c.Subtype(a, b); !ok {
			c.Subtype(b, a)
		}
	}
	var sb strings.Builder
	nodes := append(mtype.Nodes(a), mtype.Nodes(b)...)
	for _, mode := range []Mode{ModeEqual, ModeSubtype} {
		fmt.Fprintf(&sb, "explain %s:\n%s", mode, c.Explain(a, b, mode))
		for i, x := range nodes {
			for j, y := range nodes {
				if why := c.FailureReason(x, y, mode); why != "" {
					fmt.Fprintf(&sb, "reason %s %d~%d: %s\n", mode, i, j, why)
				}
			}
		}
	}
	return sb.String()
}

// TestDiagnosticsText pins, by exact text, the diagnostics of pairs that
// fail at first-step probes (kinds that match no rule, records whose leaf
// counts differ or that are too wide to flatten) beside pairs that fail
// deeper. A probe that fails at its first step and one never made must
// read the same way they always have: the first listed, the second absent.
func TestDiagnosticsText(t *testing.T) {
	for _, tc := range []struct {
		name string
		a, b *mtype.Type
		want string
	}{{
		// The port leaf is probed against both primitive classes and has
		// no partner; in equal mode the real leaf after it is never probed.
		name: "port against primitive-classed leaves",
		a:    mtype.RecordOf(mtype.NewPort(i8()), f32()),
		b:    mtype.RecordOf(i8(), i16()),
		want: `explain equal:
record ~ record: no permutation of record leaves matches
  A leaf 0 (kind port) has no partner
  port ~ integer: kinds differ: port vs integer
  port ~ integer: kinds differ: port vs integer
reason equal 0~4: no permutation of record leaves matches
reason equal 1~5: kinds differ: port vs integer
reason equal 1~6: kinds differ: port vs integer
explain subtype:
record ~ record: no permutation of record leaves matches
  A leaf 0 (kind port) has no partner
  port ~ integer: kinds differ: port vs integer
  port ~ integer: kinds differ: port vs integer
  real ~ integer: kinds differ: real vs integer
reason subtype 0~4: no permutation of record leaves matches
reason subtype 1~5: kinds differ: port vs integer
reason subtype 1~6: kinds differ: port vs integer
reason subtype 3~6: kinds differ: real vs integer
reason subtype 4~0: no permutation of record leaves matches
reason subtype 5~1: kinds differ: integer vs port
reason subtype 5~3: kinds differ: integer vs real
reason subtype 6~3: kinds differ: integer vs real
`,
	}, {
		name: "sibling records whose leaf counts differ",
		a:    mtype.ChoiceOf(mtype.NewPort(mtype.RecordOf(i8(), i8())), mtype.NewPort(mtype.RecordOf(f32(), f32(), f32()))),
		b:    mtype.ChoiceOf(mtype.NewPort(mtype.RecordOf(i8(), i8(), i8())), mtype.NewPort(mtype.RecordOf(f32(), f32()))),
		want: `explain equal:
choice ~ choice: no mapping of choice alternatives matches
  A leaf 0 (kind port) has no partner
  port ~ port: port elements differ
    record ~ record: record leaf counts differ: 2 vs 3
  port ~ port: port elements differ
    record ~ record: no permutation of record leaves matches
      A leaf 0 (kind integer) has no partner
reason equal 0~10: no mapping of choice alternatives matches
reason equal 1~11: port elements differ
reason equal 1~16: port elements differ
reason equal 2~12: record leaf counts differ: 2 vs 3
reason equal 2~17: no permutation of record leaves matches
reason equal 11~16: port elements differ
reason equal 12~17: record leaf counts differ: 3 vs 2
explain subtype:
choice ~ choice: no mapping of choice alternatives matches
  A leaf 0 (kind port) has no partner
  port ~ port: port elements differ
    record ~ record: record leaf counts differ: 2 vs 3
  port ~ port: port elements differ
  port ~ port: port elements differ
    record ~ record: record leaf counts differ: 3 vs 2
reason subtype 0~10: no mapping of choice alternatives matches
reason subtype 1~11: port elements differ
reason subtype 1~16: port elements differ
reason subtype 2~12: record leaf counts differ: 2 vs 3
reason subtype 5~16: port elements differ
reason subtype 6~12: no permutation of record leaves matches
reason subtype 6~17: record leaf counts differ: 3 vs 2
reason subtype 7~13: kinds differ: real vs integer
reason subtype 7~14: kinds differ: real vs integer
reason subtype 7~15: kinds differ: real vs integer
reason subtype 8~14: kinds differ: real vs integer
reason subtype 9~15: kinds differ: real vs integer
reason subtype 10~0: no mapping of choice alternatives matches
reason subtype 11~1: port elements differ
reason subtype 11~5: port elements differ
reason subtype 12~2: record leaf counts differ: 3 vs 2
reason subtype 16~5: port elements differ
reason subtype 17~2: no permutation of record leaves matches
reason subtype 17~6: record leaf counts differ: 2 vs 3
reason subtype 18~3: kinds differ: real vs integer
reason subtype 18~4: kinds differ: real vs integer
reason subtype 19~4: kinds differ: real vs integer
`,
	}, {
		name: "over-budget record",
		a:    mtype.RecordOf(i8(), mtype.NewPort(wideRecord(12))),
		b:    mtype.RecordOf(i8(), mtype.NewPort(mtype.RecordOf(i8()))),
		want: `explain equal:
record ~ record: no permutation of record leaves matches
  A leaf 1 (kind port) has no partner
  port ~ integer: kinds differ: port vs integer
  port ~ port: port elements differ
    record ~ record: record too wide to flatten (budget exceeded); restructure or pass large aggregates by reference
reason equal 0~18: no permutation of record leaves matches
reason equal 2~19: kinds differ: port vs integer
reason equal 2~20: port elements differ
reason equal 3~21: record too wide to flatten (budget exceeded); restructure or pass large aggregates by reference
reason equal 19~20: kinds differ: integer vs port
explain subtype:
record ~ record: no permutation of record leaves matches
  A leaf 1 (kind port) has no partner
  port ~ integer: kinds differ: port vs integer
  port ~ port: port elements differ
    record ~ record: record too wide to flatten (budget exceeded); restructure or pass large aggregates by reference
reason subtype 0~18: no permutation of record leaves matches
reason subtype 2~19: kinds differ: port vs integer
reason subtype 2~20: port elements differ
reason subtype 3~21: record too wide to flatten (budget exceeded); restructure or pass large aggregates by reference
reason subtype 18~0: no permutation of record leaves matches
reason subtype 20~1: kinds differ: port vs integer
reason subtype 20~2: port elements differ
reason subtype 21~3: record too wide to flatten (budget exceeded); restructure or pass large aggregates by reference
`,
	}, {
		// Each alternative the record is injected into fails on its leaf
		// count; the root's own reason is its first.
		name: "subtype injection into a choice",
		a:    mtype.RecordOf(i8(), f32()),
		b:    mtype.NewOptional(mtype.RecordOf(f32())),
		want: `explain equal:
record ~ choice: record leaf counts differ: 2 vs 1
reason equal 0~3: record leaf counts differ: 2 vs 1
explain subtype:
record ~ choice: record leaf counts differ: 2 vs 1
reason subtype 0~3: record leaf counts differ: 2 vs 1
reason subtype 0~4: record leaf counts differ: 2 vs 0
reason subtype 0~5: record leaf counts differ: 2 vs 1
reason subtype 3~0: record leaf counts differ: 1 vs 2
`,
	}, {
		name: "primitive leaf deeper down",
		a:    mtype.RecordOf(ch(), mtype.NewList(mtype.RecordOf(i16(), f32()))),
		b:    mtype.RecordOf(ch(), mtype.NewList(mtype.RecordOf(i8(), f32()))),
		want: `explain equal:
record ~ record: no permutation of record leaves matches
  A leaf 1 (kind choice) has no partner
  choice ~ character: kinds differ: choice vs character
  choice ~ choice: no mapping of choice alternatives matches
    A leaf 1 (kind record) has no partner
    record ~ unit: record leaf counts differ: 3 vs 0
    record ~ record: no permutation of record leaves matches
      A leaf 0 (kind integer) has no partner
reason equal 0~9: no permutation of record leaves matches
reason equal 2~10: kinds differ: choice vs character
reason equal 2~11: no mapping of choice alternatives matches
reason equal 2~12: no mapping of choice alternatives matches
reason equal 3~10: kinds differ: choice vs character
reason equal 3~11: no mapping of choice alternatives matches
reason equal 3~12: no mapping of choice alternatives matches
reason equal 5~13: record leaf counts differ: 3 vs 0
reason equal 5~14: no permutation of record leaves matches
reason equal 10~11: kinds differ: character vs choice
reason equal 10~12: kinds differ: character vs choice
reason equal 13~14: record leaf counts differ: 0 vs 3
reason equal 16~11: kinds differ: integer vs choice
reason equal 16~12: kinds differ: integer vs choice
reason equal 17~11: kinds differ: real vs choice
reason equal 17~12: kinds differ: real vs choice
explain subtype:
record ~ record: no permutation of record leaves matches
  A leaf 1 (kind choice) has no partner
  choice ~ character: kinds differ: choice vs character
  choice ~ choice: no mapping of choice alternatives matches
    A leaf 1 (kind record) has no partner
    record ~ unit: record leaf counts differ: 3 vs 0
    record ~ record: no permutation of record leaves matches
      A leaf 0 (kind integer) has no partner
reason subtype 0~9: no permutation of record leaves matches
reason subtype 2~10: kinds differ: choice vs character
reason subtype 2~11: no mapping of choice alternatives matches
reason subtype 2~12: no mapping of choice alternatives matches
reason subtype 3~10: kinds differ: choice vs character
reason subtype 3~11: no mapping of choice alternatives matches
reason subtype 3~12: no mapping of choice alternatives matches
reason subtype 5~13: record leaf counts differ: 3 vs 0
reason subtype 5~14: no permutation of record leaves matches
reason subtype 7~11: kinds differ: integer vs choice
reason subtype 7~12: kinds differ: integer vs choice
reason subtype 7~13: kinds differ: integer vs unit
reason subtype 7~14: record leaf counts differ: 1 vs 3
reason subtype 7~16: integer ranges: [-32768..32767] vs [-128..127]
reason subtype 7~17: kinds differ: integer vs real
`,
	}, {
		name: "choice against port",
		a:    mtype.RecordOf(mtype.ChoiceOf(i8(), f32()), i8()),
		b:    mtype.RecordOf(mtype.NewPort(i8()), i8()),
		want: `explain equal:
record ~ record: no permutation of record leaves matches
  A leaf 0 (kind choice) has no partner
  choice ~ port: kinds differ: choice vs port
  choice ~ integer: kinds differ: choice vs integer
reason equal 0~5: no permutation of record leaves matches
reason equal 1~6: kinds differ: choice vs port
reason equal 1~8: kinds differ: choice vs integer
explain subtype:
record ~ record: no permutation of record leaves matches
  A leaf 0 (kind choice) has no partner
  choice ~ port: kinds differ: choice vs port
  choice ~ integer: kinds differ: choice vs integer
reason subtype 0~5: no permutation of record leaves matches
reason subtype 1~6: kinds differ: choice vs port
reason subtype 1~8: kinds differ: choice vs integer
reason subtype 5~0: no permutation of record leaves matches
reason subtype 6~1: kinds differ: port vs choice
reason subtype 6~2: kinds differ: port vs integer
reason subtype 6~3: kinds differ: port vs real
reason subtype 6~4: kinds differ: port vs integer
`,
	}} {
		if got := diagnose(tc.a, tc.b); got != tc.want {
			t.Errorf("%s:\n got %s\nwant %s", tc.name, got, tc.want)
		}
	}
}

// TestDiagnosticsAcrossRegistrations pins, by exact text, the verdicts and
// diagnostics of runs made before and after a RegisterSemantic on one
// comparer. A failure stands across the registration, whether or not it
// was refused at its first step and whether or not a diagnosis was read
// before it; with the cache off every pair is decided again.
func TestDiagnosticsAcrossRegistrations(t *testing.T) {
	slope := mtype.RecordOf(f32(), f32()).SetTag("SlopeLine")
	points := mtype.RecordOf(f32(), f32(), f32(), f32()).SetTag("PointsLine")
	a, b := mtype.RecordOf(i8(), slope), mtype.RecordOf(i8(), points)
	nodes := append(mtype.Nodes(a), mtype.Nodes(b)...)
	trace := func(rules Rules, explainFirst bool) string {
		var sb strings.Builder
		c := NewComparer(rules)
		run := func(x, y *mtype.Type, mode Mode) {
			_, ok := c.run(x, y, mode)
			fmt.Fprintf(&sb, "run %s %v steps %d\n", mode, ok, c.Steps())
		}
		run(a, b, ModeEqual)            // leaf counts 3 vs 5: refused
		run(slope, points, ModeSubtype) // 2 vs 4: refused
		if explainFirst {
			fmt.Fprintf(&sb, "early: %s", c.Explain(a, b, ModeEqual))
		}
		c.RegisterSemantic("SlopeLine", "PointsLine", "slopeToPoints")
		run(a, b, ModeEqual)
		run(slope, points, ModeSubtype)
		run(a, b, ModeSubtype)
		run(b, a, ModeEqual)
		for _, mode := range []Mode{ModeEqual, ModeSubtype} {
			fmt.Fprintf(&sb, "explain %s:\n%s", mode, c.Explain(a, b, mode))
			for i, x := range nodes {
				for j, y := range nodes {
					if why := c.FailureReason(x, y, mode); why != "" {
						fmt.Fprintf(&sb, "reason %s %d~%d: %s\n", mode, i, j, why)
					}
				}
			}
		}
		return sb.String()
	}
	cached := `run equal false steps 1
run subtype false steps 2
run equal false steps 3
run subtype false steps 4
run subtype false steps 9
run equal false steps 13
explain equal:
record ~ record: record leaf counts differ: 3 vs 5
reason equal 0~5: record leaf counts differ: 3 vs 5
reason equal 1~2: record leaf counts differ: 1 vs 2
reason equal 5~0: no permutation of record leaves matches
reason equal 7~1: record leaf counts differ: 4 vs 1
reason equal 7~2: record leaf counts differ: 4 vs 2
explain subtype:
record ~ record: no permutation of record leaves matches
  A leaf 1 (kind record) has no partner
  SlopeLine ~ integer: record leaf counts differ: 2 vs 1
  SlopeLine ~ PointsLine: record leaf counts differ: 2 vs 4
reason subtype 0~5: no permutation of record leaves matches
reason subtype 2~6: record leaf counts differ: 2 vs 1
reason subtype 2~7: record leaf counts differ: 2 vs 4
`
	uncached := `run equal false steps 1
run subtype false steps 2
run equal true steps 7
run subtype true steps 8
run subtype true steps 11
run equal false steps 15
explain equal:
record ~ record: record leaf counts differ: 3 vs 5
  SlopeLine ~ integer: record leaf counts differ: 2 vs 1
reason equal 0~5: record leaf counts differ: 3 vs 5
reason equal 1~2: record leaf counts differ: 1 vs 2
reason equal 2~6: record leaf counts differ: 2 vs 1
reason equal 5~0: no permutation of record leaves matches
reason equal 6~7: record leaf counts differ: 1 vs 4
reason equal 7~1: record leaf counts differ: 4 vs 1
reason equal 7~2: record leaf counts differ: 4 vs 2
explain subtype:
  SlopeLine ~ PointsLine: record leaf counts differ: 2 vs 4
reason subtype 2~7: record leaf counts differ: 2 vs 4
`
	noCache := DefaultRules()
	noCache.Cache = false
	for _, tc := range []struct {
		rules Rules
		want  string
	}{{DefaultRules(), cached}, {noCache, uncached}} {
		for _, explainFirst := range []bool{false, true} {
			want := tc.want
			if explainFirst { // the early diagnosis reads what the end does
				want = strings.Replace(want, "steps 2\n", "steps 2\nearly: record ~ record: record leaf counts differ: 3 vs 5\n", 1)
			}
			if got := trace(tc.rules, explainFirst); got != want {
				t.Errorf("cache %v, explain first %v:\n got %s\nwant %s", tc.rules.Cache, explainFirst, got, want)
			}
		}
	}
}

// TestExplainReplaysItsModeOnly: core explains every verdict of no
// relation in equal mode, after the equivalence and both subtype runs
// failed. The diagnosis replays the equivalence run alone.
func TestExplainReplaysItsModeOnly(t *testing.T) {
	a := mtype.RecordOf(mtype.NewPort(i8()), f32())
	b := mtype.RecordOf(i8(), i16())
	c := NewComparer(DefaultRules())
	_, eq := c.Equivalent(a, b)
	equalSteps := c.Steps()
	_, ab := c.Subtype(a, b)
	_, ba := c.Subtype(b, a)
	if eq || ab || ba {
		t.Fatal("a port matched a primitive")
	}
	c.Explain(a, b, ModeEqual)
	if r := c.replay[ModeEqual-1]; r == nil || r.Steps() != equalSteps {
		t.Errorf("equal-mode replay: %v, want the equivalence run's %d steps", r, equalSteps)
	}
	if c.replay[ModeSubtype-1] != nil {
		t.Error("an equal-mode diagnosis replayed the subtype runs")
	}
}

// TestVerdictsStandAcrossRegistrations: a registration made after a pair
// matched does not undo the match while the cache is on, though the
// registration keeps the tagged record from dissolving, so a fresh probe
// would refuse the pair on its leaf counts. With the cache off the pair
// is decided again, and refused.
func TestVerdictsStandAcrossRegistrations(t *testing.T) {
	noCache := DefaultRules()
	noCache.Cache = false
	refused := "record ~ record: record leaf counts differ: 2 vs 3\n"
	for _, tc := range []struct {
		rules Rules
		want  string
	}{
		{DefaultRules(), "true true false, 3 steps\nno mismatch recorded" + refused},
		{noCache, "true false false, 3 steps\n" + refused + refused},
	} {
		pair := mtype.RecordOf(f32(), f32()).SetTag("Pair")
		a, b := mtype.RecordOf(i8(), pair), mtype.RecordOf(i8(), f32(), f32())
		c := NewComparer(tc.rules)
		_, before := c.Equivalent(a, b)
		c.RegisterSemantic("Pair", "Other", "pairToOther")
		_, after := c.Equivalent(a, b)
		_, sub := c.Subtype(a, b)
		got := fmt.Sprintf("%v %v %v, %d steps\n%s%s", before, after, sub, c.Steps(), c.Explain(a, b, ModeEqual), c.Explain(a, b, ModeSubtype))
		if got != tc.want {
			t.Errorf("cache %v:\n got %s\nwant %s", tc.rules.Cache, got, tc.want)
		}
	}
}
