package fuse

import (
	"errors"
	"fmt"
	"regexp"
	"strings"
	"testing"

	"repro/internal/cmem"
	"repro/internal/core"
	"repro/internal/testutil"
	"repro/internal/value"
)

// refusal is one row of the refusal table: a minimal declaration pair the
// general stub accepts and the fused compiler must turn down at compile
// time, and the format string of the unsupported( site that does so.
type refusal struct {
	site string
	pair pair
	// prepare, if set, configures the session before compiling.
	prepare func(*core.Session)
}

func decls(c, cScript, java, jScript, method string) pair {
	return pair{name: method, c: c, cScript: cScript, java: java, jScript: jScript,
		iface: "I", method: method, cfn: method, impl: pokePair.impl}
}

var refusals = []refusal{
	{site: "java %s inside a fused aggregate", pair: decls(
		`int sum(int xs[], int n);`, "annotate sum.xs length-from=n",
		`interface I { int sum(int[] xs); }`, "annotate I.sum.xs nonnull", "sum")},
	{site: "collection %s is not a top-level input parameter", pair: decls(
		totalPair.c, totalPair.cScript,
		`class Cell { int tag; double w; } class Cells extends java.util.Vector;
		 class Holder { Cells xs; } interface I { double total(Holder h); }`,
		"annotate Cells collection-of=Cell element-nonnull\nannotate Holder.xs nonnull\nannotate I.total.h nonnull noalias", "total")},
	{site: "nullable reference to %s inside a fused aggregate", pair: decls(
		`struct Box { int *maybe; }; void eat(struct Box *b);`, "annotate eat.b nonnull",
		`class IntBox { int v; } class Box { IntBox maybe; } interface I { void eat(Box b); }`,
		"annotate I.eat.b nonnull noalias", "eat")},
	{site: "object reference %s inside a fused aggregate", pair: decls(
		`void use(void (*cb)(void));`, "annotate use.cb nonnull",
		`interface Cb { void run(); } interface I { void use(Cb cb); }`, "annotate I.use.cb nonnull", "use")},
	{site: "nullable C pointer", pair: decls(
		`struct Box { int *maybe; }; void get(struct Box *out);`, "annotate get.out out nonnull",
		`class IntBox { int v; } class Box { IntBox maybe; } interface I { Box get(); }`,
		"annotate I.get.return nonnull", "get")},
	{site: "C %s inside a fused aggregate", pair: decls(
		`struct Ops { void (*f)(void); }; void get(struct Ops *out);`, "annotate get.out out nonnull\nannotate Ops.f nonnull",
		`interface Cb { void run(); } class Ops { Cb f; } interface I { Ops get(); }`,
		"annotate I.get.return nonnull\nannotate Ops.f nonnull", "get")},
	// By-value aggregate passing was refused on every Invoke, after the
	// argument had been allocated and moved; it is a compile-time refusal.
	{site: "C %s passed or returned by value", pair: decls(
		`struct Pt { float x; float y; }; float norm(struct Pt p);`, "",
		`class Point { float x; float y; } interface I { float norm(Point p); }`,
		"annotate I.norm.p nonnull noalias", "norm")},
	// A semantic registration makes the pair equivalent; the fused tier
	// sees it (it used to compare under default rules of its own and call
	// the pair not equivalent) and leaves hooks to the general stub.
	{site: "the plan pairs %d leaves with %d where the declarations hold %d and %d", pair: decls(
		`struct Seg { double x0; double y0; double x1; double y1; }; double eval(struct Seg *l);`, "annotate eval.l nonnull",
		`class Slope { double m; double b; } interface I { double eval(Slope l); }`,
		"annotate I.eval.l nonnull noalias", "eval"),
		prepare: func(s *core.Session) {
			id := func(v value.Value) (value.Value, error) { return v, nil }
			s.RegisterSemantic("Slope", "Seg", "slope→seg", id)
			s.RegisterSemantic("Seg", "Slope", "seg→slope", id)
		}},
	{site: "java parameter %s has role %s", pair: decls(
		`struct Pt { float x; float y; }; void get(struct Pt *p);`, "annotate get.p out nonnull",
		`class Point { float x; float y; } interface I { void get(Point p); }`,
		"annotate I.get.p out nonnull noalias", "get")},
	{site: "inout parameter %s", pair: decls(
		`void bump(int *v);`, "annotate bump.v inout nonnull",
		`interface I { int bump(int v); }`, "", "bump")},
	// A length parameter whose array is not a fused list used to fail on
	// every Invoke through a by-name lookup; it is a compile-time refusal.
	{site: "length parameter %s counts %s, which is not an input list", pair: decls(
		`void fill(int n, int *buf);`, "annotate fill.buf out length-from=n",
		`class IntBox { int v; } class Ints extends java.util.Vector; interface I { Ints fill(); }`,
		"annotate Ints collection-of=IntBox element-nonnull\nannotate I.fill.return nonnull", "fill")},
	{site: "out parameter %s is not a pointer", pair: decls(
		`void get(float v[2]);`, "annotate get.v out",
		`class V { float a; float b; } interface I { V get(); }`, "annotate I.get.return nonnull", "get")},
	// Each direction keeps its registers in a fixed-size array on its own
	// stack; a Java object of maxRegs boxed ints needs two owners more.
	{site: "the stub needs %d registers where a call holds %d", pair: boxes(maxRegs)},
}

// boxes is a pair whose Java argument holds n objects of one int each and
// whose C argument points to a struct of n ints.
func boxes(n int) pair {
	var cFields, jFields, jScript strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&cFields, "int a%d; ", i)
		fmt.Fprintf(&jFields, "Box a%d; ", i)
		fmt.Fprintf(&jScript, "annotate Boxes.a%d nonnull noalias\n", i)
	}
	return decls(
		"struct Boxes { "+cFields.String()+"}; void eat(struct Boxes *b);", "annotate eat.b nonnull",
		"class Box { int v; } class Boxes { "+jFields.String()+"} interface I { void eat(Boxes b); }",
		jScript.String()+"annotate I.eat.b nonnull noalias", "eat")
}

// verbRe matches a fmt verb in a refusal site's format string.
var verbRe = regexp.MustCompile(`%[a-z]`)

func (r refusal) run(t *testing.T) {
	s, jFn := r.pair.session(t, cmem.ILP32)
	if r.prepare != nil {
		r.prepare(s)
	}
	if _, err := s.NewCallStub("java", jFn, "c", r.pair.cfn, core.EngineCompiled, nil); err != nil {
		t.Fatalf("the general stub does not compile the pair either: %v", err)
	}
	_, err := CompileFromSession(s, "java", jFn, "c", r.pair.cfn, cmem.ILP32, r.pair.impl)
	if !errors.Is(err, ErrUnsupported) {
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

// TestFusedUnsupportedFallsOut is the refusal table: every construct
// outside the fused subset is turned down when the stub is compiled, with
// an error matching ErrUnsupported so callers fall back to the general
// engines — never later, per value.
func TestFusedUnsupportedFallsOut(t *testing.T) {
	for _, r := range refusals {
		t.Run(r.site, r.run)
	}
}

func TestFusedRejectsInout(t *testing.T) {
	for _, r := range refusals {
		if strings.HasPrefix(r.site, "inout") {
			r.run(t)
		}
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

// TestRegisterBoundIsExact: the refusal row's pair with two boxes fewer
// needs exactly maxRegs owner registers and fuses.
func TestRegisterBoundIsExact(t *testing.T) {
	boxes(maxRegs-2).compile(t, cmem.ILP32)
}
