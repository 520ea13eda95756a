package lower

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/annotate"
	"repro/internal/cparse"
	"repro/internal/fingerprint"
	"repro/internal/idlparse"
	"repro/internal/javaparse"
	"repro/internal/limits"
	"repro/internal/mtype"
	"repro/internal/stype"
)

const fitterC = `
typedef float point[2];
void fitter(point pts[], int count, point *start, point *end);
`

const fitterCScript = `
annotate fitter.start out nonnull
annotate fitter.end out nonnull
annotate fitter.pts length-from=count
`

const figure1Java = `
public class Point { private float x; private float y; }
public class Line { private Point start; private Point end; }
public class PointVector extends java.util.Vector;
public interface JavaIdeal { Line fitter(PointVector pts); }
`

const figure1JavaScript = `
annotate Line.start nonnull noalias
annotate Line.end nonnull noalias
annotate PointVector collection-of=Point element-nonnull
annotate JavaIdeal.fitter.pts nonnull
annotate JavaIdeal.fitter.return nonnull
`

func lowerC(t *testing.T, src, script, decl string) *mtype.Type {
	t.Helper()
	u, err := cparse.Parse("t.h", src, cparse.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if script != "" {
		if _, err := annotate.ApplyScript(u, script); err != nil {
			t.Fatal(err)
		}
	}
	ty, err := New(u).Decl(decl)
	if err != nil {
		t.Fatal(err)
	}
	return ty
}

func lowerJava(t *testing.T, src, script, decl string) *mtype.Type {
	t.Helper()
	u, err := javaparse.Parse("T.java", src)
	if err != nil {
		t.Fatal(err)
	}
	if script != "" {
		if _, err := annotate.ApplyScript(u, script); err != nil {
			t.Fatal(err)
		}
	}
	ty, err := New(u).Decl(decl)
	if err != nil {
		t.Fatal(err)
	}
	return ty
}

// TestSection34FitterMtypes checks the paper's §3.4 claim: after
// annotation, both the C fitter and JavaIdeal lower to
//
//	port(Record(L, port(Record(RR, RR))))
//
// where L is a list of Record(Real,Real) — identical shapes up to record
// nesting, which the comparer's associativity rule absorbs.
func TestSection34FitterMtypes(t *testing.T) {
	cTy := lowerC(t, fitterC, fitterCScript, "fitter")
	jTy := lowerJava(t, figure1Java, figure1JavaScript, "JavaIdeal")

	wantC := "port(record(μL1.choice(unit, record(record(real(24,8), real(24,8)), L1)), " +
		"port(record(record(real(24,8), real(24,8)), record(real(24,8), real(24,8))))))"
	if got := cTy.String(); got != wantC {
		t.Errorf("C fitter Mtype:\n got %s\nwant %s", got, wantC)
	}
	wantJ := "port(record(μL1.choice(unit, record(record(real(24,8), real(24,8)), L1)), " +
		"port(record(record(record(real(24,8), real(24,8)), record(real(24,8), real(24,8)))))))"
	if got := jTy.String(); got != wantJ {
		t.Errorf("Java fitter Mtype:\n got %s\nwant %s", got, wantJ)
	}
}

// TestFigure8RecursiveList checks that a recursive Java list lowers to the
// cyclic Mtype of Figure 8(b): choice(unit, record(integer, ↑)).
func TestFigure8RecursiveList(t *testing.T) {
	ty := lowerJava(t, `
		public class IntList {
			int value;
			IntList next;
		}
	`, "", "IntList")
	// The root is the by-value record; the next field is the nullable
	// reference, which is where the μ cycle closes.
	if ty.Kind() != mtype.KindRecursive {
		t.Fatalf("IntList root = %s, want recursive", ty.Kind())
	}
	body := ty.Body()
	if body.Kind() != mtype.KindRecord {
		t.Fatalf("body = %s", body.Kind())
	}
	next := body.Fields()[1].Type
	if next.Kind() != mtype.KindChoice {
		t.Fatalf("next = %s, want choice (nullable)", next.Kind())
	}
	if next.Alts()[1].Type != ty {
		t.Error("cycle does not close back on the μ node")
	}
	if err := mtype.Validate(ty); err != nil {
		t.Error(err)
	}
}

// TestIndefiniteArrayEqualsListEncoding checks the §3.2 claim that a C
// float[] of runtime size lowers to the same shape as a Java list of
// floats.
func TestIndefiniteArrayEqualsListEncoding(t *testing.T) {
	cTy := lowerC(t, `void f(float xs[], int n);`, "annotate f.xs length-from=n", "f")
	req := cTy.Elem().Fields()
	if len(req) != 2 { // xs + reply
		t.Fatalf("request fields = %d", len(req))
	}
	xs := req[0].Type
	want := mtype.NewList(mtype.NewFloat32())
	if fingerprint.Exact(xs) != fingerprint.Exact(want) {
		t.Errorf("xs = %s, want list of real", xs)
	}
}

func TestPrimitiveLowering(t *testing.T) {
	u, err := cparse.Parse("t.h", `
		void f(char c, signed char sc, unsigned char uc, short s, int i,
		       unsigned int u, long long ll, float fl, double d, _Bool b,
		       wchar_t w);
	`, cparse.Config{})
	if err != nil {
		t.Fatal(err)
	}
	fn, err := New(u).Decl("f")
	if err != nil {
		t.Fatal(err)
	}
	fields := fn.Elem().Fields()
	checks := []struct {
		idx  int
		desc string
		test func(*mtype.Type) bool
	}{
		{0, "char→character(latin1)", func(m *mtype.Type) bool {
			return m.Kind() == mtype.KindCharacter && m.Repertoire() == mtype.RepLatin1
		}},
		{1, "signed char→int8", func(m *mtype.Type) bool {
			if m.Kind() != mtype.KindInteger {
				return false
			}
			lo, hi := m.IntegerRange()
			return lo.Int64() == -128 && hi.Int64() == 127
		}},
		{2, "unsigned char→uint8", func(m *mtype.Type) bool {
			if m.Kind() != mtype.KindInteger {
				return false
			}
			lo, hi := m.IntegerRange()
			return lo.Int64() == 0 && hi.Int64() == 255
		}},
		{3, "short→int16", func(m *mtype.Type) bool {
			if m.Kind() != mtype.KindInteger {
				return false
			}
			lo, _ := m.IntegerRange()
			return lo.Int64() == -32768
		}},
		{7, "float→real(24,8)", func(m *mtype.Type) bool {
			if m.Kind() != mtype.KindReal {
				return false
			}
			p, e := m.RealParams()
			return p == 24 && e == 8
		}},
		{8, "double→real(53,11)", func(m *mtype.Type) bool {
			if m.Kind() != mtype.KindReal {
				return false
			}
			p, e := m.RealParams()
			return p == 53 && e == 11
		}},
		{9, "bool→integer[0..1]", func(m *mtype.Type) bool {
			if m.Kind() != mtype.KindInteger {
				return false
			}
			lo, hi := m.IntegerRange()
			return lo.Int64() == 0 && hi.Int64() == 1
		}},
		{10, "wchar_t→character(ucs2)", func(m *mtype.Type) bool {
			return m.Kind() == mtype.KindCharacter && m.Repertoire() == mtype.RepUCS2
		}},
	}
	for _, c := range checks {
		if !c.test(fields[c.idx].Type) {
			t.Errorf("%s: got %s", c.desc, fields[c.idx].Type)
		}
	}
}

func TestRangeAnnotationOverride(t *testing.T) {
	// §3.1's example: a Java int annotated to hold only unsigned values
	// matches a C unsigned int annotated to stay below 2^31.
	jTy := lowerJava(t, `class C { int v; }`, "annotate C.v range=0..2147483647", "C")
	cTy := lowerC(t, `struct C { unsigned int v; };`, "annotate C.v range=0..2147483647", "C")
	if fingerprint.Exact(jTy) != fingerprint.Exact(cTy) {
		t.Errorf("annotated ranges differ: %s vs %s", jTy, cTy)
	}
}

func TestCharVsIntAnnotation(t *testing.T) {
	asInt := lowerC(t, `struct S { char c; };`, "annotate S.c int", "S")
	if asInt.Fields()[0].Type.Kind() != mtype.KindInteger {
		t.Errorf("char annotated int = %s", asInt.Fields()[0].Type)
	}
	asChar := lowerC(t, `struct S { short c; };`, "annotate S.c char repertoire=ucs2", "S")
	if asChar.Fields()[0].Type.Kind() != mtype.KindCharacter {
		t.Errorf("short annotated char = %s", asChar.Fields()[0].Type)
	}
}

func TestEnumLowering(t *testing.T) {
	ty := lowerC(t, `enum Color { RED, GREEN, BLUE }; struct S { enum Color c; };`, "", "S")
	c := ty.Fields()[0].Type
	if c.Kind() != mtype.KindInteger {
		t.Fatalf("enum = %s", c)
	}
	lo, hi := c.IntegerRange()
	if lo.Int64() != 0 || hi.Int64() != 2 {
		t.Errorf("enum range = [%s..%s], want [0..2]", lo, hi)
	}
}

func TestUnionLowering(t *testing.T) {
	ty := lowerC(t, `union N { int i; float f; };  struct S { union N n; };`, "", "S")
	n := ty.Fields()[0].Type
	if n.Kind() != mtype.KindChoice || len(n.Alts()) != 2 {
		t.Fatalf("union = %s", n)
	}
}

func TestPointerNullability(t *testing.T) {
	nullable := lowerC(t, `struct S { int *p; };`, "", "S")
	p := nullable.Fields()[0].Type
	if p.Kind() != mtype.KindChoice || p.Alts()[0].Type.Kind() != mtype.KindUnit {
		t.Errorf("nullable pointer = %s", p)
	}
	nn := lowerC(t, `struct S { int *p; };`, "annotate S.p nonnull", "S")
	if nn.Fields()[0].Type.Kind() != mtype.KindInteger {
		t.Errorf("nonnull pointer = %s", nn.Fields()[0].Type)
	}
}

func TestPointerWithFixedLength(t *testing.T) {
	ty := lowerC(t, `void f(float *xs);`, "annotate f.xs length=3", "f")
	xs := ty.Elem().Fields()[0].Type
	if xs.Kind() != mtype.KindRecord || len(xs.Fields()) != 3 {
		t.Errorf("xs = %s, want record of 3 reals", xs)
	}
}

func TestFixedArrayIsRecord(t *testing.T) {
	// §3.2: the Java class Point (two floats) and C float[2] share an
	// Mtype shape.
	cTy := lowerC(t, `typedef float point[2];`, "", "point")
	jTy := lowerJava(t, `class Point { float x; float y; }`, "", "Point")
	if fingerprint.Exact(cTy) != fingerprint.Exact(jTy) {
		t.Errorf("point %s vs Point %s", cTy, jTy)
	}
}

func TestIgnoreAnnotationDropsField(t *testing.T) {
	ty := lowerC(t, `struct S { int keep; int pad; };`, "annotate S.pad ignore", "S")
	if len(ty.Fields()) != 1 {
		t.Errorf("fields = %d, want 1", len(ty.Fields()))
	}
}

func TestMethodIgnoreDropsAlternative(t *testing.T) {
	u := javaparse.MustParse(`
		interface I {
			int keep(int x);
			void internal();
		}
	`)
	if _, err := annotate.ApplyScript(u, "annotate I.internal ignore"); err != nil {
		t.Fatal(err)
	}
	ty, err := New(u).Decl("I")
	if err != nil {
		t.Fatal(err)
	}
	// One surviving method collapses the Choice (§3.4 shape).
	if ty.Kind() != mtype.KindPort || ty.Elem().Kind() != mtype.KindRecord {
		t.Errorf("I = %s", ty)
	}
}

func TestObjectReferencePort(t *testing.T) {
	ty := lowerJava(t, `
		class Obj {
			int get();
			void set(int v);
			int state;
		}
		class Holder { Obj ref; }
	`, "annotate Holder.ref byref", "Holder")
	ref := ty.Fields()[0].Type
	if ref.Kind() != mtype.KindChoice {
		t.Fatalf("ref = %s (nullable expected)", ref)
	}
	obj := ref.Alts()[1].Type
	if obj.Kind() != mtype.KindPort {
		t.Fatalf("object = %s, want port", obj)
	}
	if obj.Elem().Kind() != mtype.KindChoice || len(obj.Elem().Alts()) != 2 {
		t.Errorf("object port element = %s", obj.Elem())
	}
}

func TestInterfaceMethodsIncludeInherited(t *testing.T) {
	u := idlparse.MustParse(`
		interface Base { void ping(); };
		interface Derived : Base { void pong(); };
	`)
	ty, err := New(u).Decl("Derived")
	if err != nil {
		t.Fatal(err)
	}
	if ty.Kind() != mtype.KindPort || ty.Elem().Kind() != mtype.KindChoice {
		t.Fatalf("Derived = %s", ty)
	}
	if len(ty.Elem().Alts()) != 2 {
		t.Errorf("alternatives = %d, want 2 (ping inherited)", len(ty.Elem().Alts()))
	}
}

func TestIDLModesShapeTheRecords(t *testing.T) {
	u := idlparse.MustParse(`
		interface I {
			long f(in long a, out long b, inout long c);
		};
	`)
	ty, err := New(u).Decl("I")
	if err != nil {
		t.Fatal(err)
	}
	req := ty.Elem()
	if req.Kind() != mtype.KindRecord {
		t.Fatalf("request = %s", req)
	}
	// inputs: a, c, reply → 3 fields.
	if len(req.Fields()) != 3 {
		t.Fatalf("request fields = %d, want 3", len(req.Fields()))
	}
	reply := req.Fields()[2].Type
	if reply.Kind() != mtype.KindPort {
		t.Fatalf("reply = %s", reply)
	}
	// outputs: b, c, return → 3 fields.
	if len(reply.Elem().Fields()) != 3 {
		t.Errorf("reply fields = %d, want 3", len(reply.Elem().Fields()))
	}
}

func TestOnewayLowering(t *testing.T) {
	u := idlparse.MustParse(`
		interface Chan { oneway void send(in long payload); };
	`)
	ty, err := New(u).Decl("Chan")
	if err != nil {
		t.Fatal(err)
	}
	// Single oneway method: port(Record(Integer)) with no reply port.
	inv := ty.Elem()
	if inv.Kind() != mtype.KindRecord || len(inv.Fields()) != 1 {
		t.Fatalf("invocation = %s", inv)
	}
	if inv.Fields()[0].Type.Kind() != mtype.KindInteger {
		t.Errorf("payload = %s", inv.Fields()[0].Type)
	}
}

func TestIDLStringLowering(t *testing.T) {
	u := idlparse.MustParse(`struct S { string name; };`)
	ty, err := New(u).Decl("S")
	if err != nil {
		t.Fatal(err)
	}
	name := ty.Fields()[0].Type
	want := mtype.NewList(mtype.NewCharacter(mtype.RepLatin1))
	if fingerprint.Exact(name) != fingerprint.Exact(want) {
		t.Errorf("string = %s", name)
	}
}

func TestVectorDefaultsToObjectCollection(t *testing.T) {
	// Without a collection-of annotation, a Vector subclass is a
	// collection of nullable Objects.
	ty := lowerJava(t, `class Bag extends java.util.Vector;`+"\n"+`class H { Bag b; }`,
		"annotate H.b nonnull", "H")
	b := ty.Fields()[0].Type
	if b.Kind() != mtype.KindRecursive {
		t.Fatalf("bag = %s, want list", b)
	}
}

func TestSignatureOf(t *testing.T) {
	u := cparse.MustParse(fitterC)
	if _, err := annotate.ApplyScript(u, fitterCScript); err != nil {
		t.Fatal(err)
	}
	fn := u.Lookup("fitter").Type
	sig, err := SignatureOf(fn.Params, fn.Result)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]Role{"pts": RoleIn, "count": RoleLength, "start": RoleOut, "end": RoleOut}
	for name, role := range want {
		if sig.Roles[name] != role {
			t.Errorf("role[%s] = %s, want %s", name, sig.Roles[name], role)
		}
	}
	if sig.LengthOf["count"] != "pts" {
		t.Errorf("LengthOf = %+v", sig.LengthOf)
	}
}

func TestSignatureErrors(t *testing.T) {
	cases := []struct {
		src    string
		script string
		want   string
	}{
		{`void f(float xs[], float n);`, "annotate f.xs length-from=n", "not integral"},
		{`void f(float xs[]);`, "annotate f.xs length-from=ghost", "unknown parameter"},
		{`void f(float xs[], float ys[], int n);`,
			"annotate f.xs length-from=n\nannotate f.ys length-from=n", "length of both"},
	}
	for _, c := range cases {
		u := cparse.MustParse(c.src)
		if _, err := annotate.ApplyScript(u, c.script); err != nil {
			t.Fatal(err)
		}
		_, err := New(u).Decl("f")
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("source %q: error = %v, want %q", c.src, err, c.want)
		}
	}
}

func TestLowerUnknownDecl(t *testing.T) {
	u := stype.NewUniverse(stype.LangC)
	if _, err := New(u).Decl("nope"); err == nil {
		t.Error("unknown decl accepted")
	}
}

func TestCollectionUnknownElement(t *testing.T) {
	u := javaparse.MustParse(`class V extends java.util.Vector; class H { V v; }`)
	if _, err := annotate.Apply(u, "H.v", stype.Ann{CollectionOf: "Ghost"}); err != nil {
		t.Fatal(err)
	}
	if _, err := New(u).Decl("H"); err == nil {
		t.Error("collection of unknown element accepted")
	}
}

func TestSharedDeclLowersToSharedGraph(t *testing.T) {
	// Two uses of the same struct share one Mtype node (memoization).
	ty := lowerC(t, `
		struct P { float x; float y; };
		struct Pair { struct P a; struct P b; };
	`, "", "Pair")
	if ty.Fields()[0].Type != ty.Fields()[1].Type {
		t.Error("two uses of P lowered to distinct graphs")
	}
}

func TestMutuallyRecursiveDecls(t *testing.T) {
	ty := lowerJava(t, `
		class A { int x; B b; }
		class B { A a; }
	`, "", "A")
	if err := mtype.Validate(ty); err != nil {
		t.Fatal(err)
	}
	if ty.Kind() != mtype.KindRecursive {
		t.Errorf("A = %s, want μ root", ty.Kind())
	}
}

// TestFixedLengthBudget: a universe lowers into at most
// limits.DefaultMaxTokens fixed-length array elements, counted across
// its declarations, so a hostile length is a budget error and not an
// allocation of gigabytes. A length at the bound still lowers.
func TestFixedLengthBudget(t *testing.T) {
	for _, c := range []struct {
		src   string
		decls []string
		fails bool
	}{
		{"struct S { char a[1000000000]; };", []string{"S"}, true},
		{"struct S { char a[600000], b[600000]; };", []string{"S"}, true},
		{"struct A { char a[600000]; }; struct B { char b[600000]; };", []string{"A", "B"}, true},
		{"struct S { char a[1048576]; };", []string{"S"}, false},
	} {
		u, err := cparse.Parse("t.h", c.src, cparse.Config{})
		if err != nil {
			t.Fatal(err)
		}
		l := New(u)
		for _, d := range c.decls {
			_, err = l.Decl(d)
			if err != nil {
				break
			}
		}
		if c.fails != errors.Is(err, limits.ErrBudget) || !c.fails && err != nil {
			t.Errorf("%s: %v", c.src, err)
		}
	}
}
