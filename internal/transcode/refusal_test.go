package transcode_test

import (
	"errors"
	"regexp"
	"strings"
	"testing"

	"repro/internal/compare"
	"repro/internal/convert"
	"repro/internal/mtype"
	"repro/internal/plan"
	"repro/internal/testutil"
	"repro/internal/transcode"
	"repro/internal/value"
)

// refusal is one row of the refusal table: the smallest Mtype pair the
// default comparer accepts that Compile turns down, and the format string
// of the unsupported( site that does so.
type refusal struct {
	site    string
	a, b    *mtype.Type
	subtype bool
	// hook, if set, registers a semantic conversion from a's tag to b's.
	hook string
}

func i32() *mtype.Type { return mtype.NewIntegerBits(32, true) }

// swapA and swapB are lists that relate only by subtyping, and only
// because the augmenting-path matcher hands the tail of the source's cons
// cell to the head of the destination's: A = μL.Choice(Unit, Record(h, L))
// and B = μM.Choice(Unit, Record(L, M)), where h = Choice(Record(L, M)) is
// a subtype of B but not of L.
var swapA, swapB = func() (a, b *mtype.Type) {
	l, m := mtype.NewRecursive(), mtype.NewRecursive()
	consB := mtype.RecordOf(l, m)
	l.SetBody(mtype.ChoiceOf(mtype.Unit(), mtype.RecordOf(mtype.ChoiceOf(consB), l)))
	m.SetBody(mtype.ChoiceOf(mtype.Unit(), consB))
	return l, m
}()

// deepBinders is t under one more μ binder than wire.Unfold looks through.
func deepBinders(t *mtype.Type) *mtype.Type {
	for i := 0; i <= 1<<10; i++ {
		r := mtype.NewRecursive()
		r.SetBody(t)
		t = r
	}
	return t
}

var refusals = []refusal{
	{site: "semantic hook %q requires the tree engine",
		a: i32().SetTag("cents"), b: i32().SetTag("euros"), hook: "cents→euros"},
	// A sequence against its own unfolding: the plan is one node, the
	// wire a count-prefixed sequence on one side only. A record holding a
	// sequence, or a value injected into one, reads the same.
	{site: "sequence vs cons-chain encoding mix",
		a: mtype.NewList(i32()), b: mtype.NewList(i32()).Body()},
	{site: "cons tail does not map to tail", a: swapA, b: swapB, subtype: true},
	{site: "integer range exceeds 64 bits",
		a: mtype.NewIntegerBits(65, true), b: mtype.NewIntegerBits(65, true)},
	{site: "real exceeds binary64",
		a: mtype.NewReal(113, 15), b: mtype.NewReal(113, 15)},
	{site: "recursive binders nest too deep to unfold",
		a: mtype.RecordOf(deepBinders(i32())), b: i32()},
	// The same chain as the declared root: it matches no plan node, and
	// must still be this refusal, not a mismatch.
	{site: "recursive binders nest too deep to unfold",
		a: deepBinders(i32()), b: i32()},
}

// verbRe matches a fmt verb in a refusal site's format string.
var verbRe = regexp.MustCompile(`%[a-z]`)

func (r refusal) run(t *testing.T) {
	c := compare.NewComparer(compare.DefaultRules())
	hooks := convert.Hooks{}
	if r.hook != "" {
		c.RegisterSemantic(r.a.Tag(), r.b.Tag(), r.hook)
		hooks[r.hook] = func(v value.Value) (value.Value, error) { return v, nil }
	}
	m, ok := c.Equivalent(r.a, r.b)
	if r.subtype {
		if ok {
			t.Fatal("the pair is equivalent; the row wants one that only subtypes")
		}
		m, ok = c.Subtype(r.a, r.b)
	}
	if !ok {
		t.Fatalf("the default comparer does not accept the pair:\n%s", c.Explain(r.a, r.b, compare.ModeSubtype))
	}
	p, err := plan.Build(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := convert.CompileHooks(p, hooks); err != nil {
		t.Fatalf("the tree rung does not compile the pair either: %v", err)
	}
	_, err = transcode.Compile(p, r.a, r.b)
	if !errors.Is(err, transcode.ErrUnsupported) {
		t.Fatalf("error %v does not match ErrUnsupported", err)
	}
	// The site's format string, verbs as wildcards, must end the message.
	parts := verbRe.Split(r.site, -1)
	for i := range parts {
		parts[i] = regexp.QuoteMeta(parts[i])
	}
	if want := regexp.MustCompile(": " + strings.Join(parts, ".+") + "$"); !want.MatchString(err.Error()) {
		t.Errorf("refused with %q, not by the site %q", err, r.site)
	}
}

// TestTranscodeRefusals is the refusal table: the constructs outside the
// fused subset, each turned down by Compile with an error matching
// ErrUnsupported, so core.BuildTranscoder gives the pair the tree rung. A
// row a second pair reaches runs again under its name with "#01" added.
func TestTranscodeRefusals(t *testing.T) {
	for _, r := range refusals {
		t.Run(r.site, r.run)
	}
}

// TestEveryRefusalSiteHasARow holds the refusal table to the package's
// unsupported( sites: one row per site, one site per row.
func TestEveryRefusalSiteHasARow(t *testing.T) {
	var rows []string
	for _, r := range refusals {
		rows = append(rows, r.site)
	}
	testutil.RefusalSites(t, "unsupported", rows)
}

// TestSeqStepOnTreeIsNotARefusal: asking a pair that does not stream for a
// streaming step is the caller's mistake, not a construct outside the
// fused subset, so its error is not ErrUnsupported.
func TestSeqStepOnTreeIsNotARefusal(t *testing.T) {
	a := mtype.NewList(i32())
	xc := transcode.Tree(a, a, nil, "law")
	if _, _, _, err := xc.SeqStep(nil, nil, 0, 1); err == nil || errors.Is(err, transcode.ErrUnsupported) {
		t.Fatalf("SeqStep on the tree rung = %v, want an error that is not ErrUnsupported", err)
	}
}
