package idlparse

import (
	"strings"
	"testing"

	"repro/internal/stype"
)

// figure3a is the Java-friendly IDL of Figure 3(a) of the paper.
const figure3a = `
interface JavaFriendly {
  struct Point {
    float x;
    float y;
  };
  struct Line {
    Point start;
    Point end;
  };
  typedef sequence<Point> PointVector;
  Line fitter(in PointVector pts);
};
`

// figure3b is the C-friendly IDL of Figure 3(b).
const figure3b = `
interface CFriendly {
  typedef float Point[2];
  typedef sequence<Point> pointseq;
  void fitter(in pointseq pts,
              in long count,
              out Point start,
              out Point end);
};
`

func TestFigure3aJavaFriendly(t *testing.T) {
	u := MustParse(figure3a)
	iface := u.Lookup("JavaFriendly")
	if iface == nil || iface.Type.Kind != stype.KInterface {
		t.Fatalf("JavaFriendly = %+v", iface)
	}
	pt := u.Lookup("JavaFriendly::Point")
	if pt == nil || pt.Type.Kind != stype.KStruct || len(pt.Type.Fields) != 2 {
		t.Fatalf("Point = %+v", pt)
	}
	line := u.Lookup("JavaFriendly::Line")
	if line == nil || line.Type.Fields[0].Type.Name != "JavaFriendly::Point" {
		t.Fatalf("Line = %+v", line)
	}
	pv := u.Lookup("JavaFriendly::PointVector")
	if pv == nil || pv.Type.Kind != stype.KSequence {
		t.Fatalf("PointVector = %+v", pv)
	}
	if len(iface.Type.Methods) != 1 {
		t.Fatalf("methods = %+v", iface.Type.Methods)
	}
	m := iface.Type.Methods[0]
	if m.Name != "fitter" || m.Result == nil || m.Result.Name != "JavaFriendly::Line" {
		t.Errorf("fitter = %s", m.Signature())
	}
	if m.Params[0].Type.Ann.Mode != stype.ModeIn {
		t.Errorf("pts mode = %s", m.Params[0].Type.Ann.Mode)
	}
}

func TestFigure3bCFriendly(t *testing.T) {
	u := MustParse(figure3b)
	iface := u.Lookup("CFriendly")
	m := iface.Type.Methods[0]
	if len(m.Params) != 4 {
		t.Fatalf("params = %+v", m.Params)
	}
	modes := []stype.Mode{stype.ModeIn, stype.ModeIn, stype.ModeOut, stype.ModeOut}
	for i, want := range modes {
		if m.Params[i].Type.Ann.Mode != want {
			t.Errorf("param %d mode = %s, want %s", i, m.Params[i].Type.Ann.Mode, want)
		}
	}
	pt := u.Lookup("CFriendly::Point")
	if pt == nil || pt.Type.Kind != stype.KArray || pt.Type.Len != 2 {
		t.Fatalf("Point = %+v", pt)
	}
	if m.Result != nil {
		t.Errorf("fitter result = %s, want void", m.Result)
	}
}

func TestBasicTypes(t *testing.T) {
	u := MustParse(`
		interface T {
			void f(in short a, in long b, in long long c,
			       in unsigned short d, in unsigned long e,
			       in unsigned long long g, in float h, in double i,
			       in char j, in wchar k, in boolean l, in octet m,
			       in string s, in wstring w);
		};
	`)
	m := u.Lookup("T").Type.Methods[0]
	want := []stype.Prim{
		stype.PI16, stype.PI32, stype.PI64, stype.PU16, stype.PU32,
		stype.PU64, stype.PF32, stype.PF64, stype.PChar8, stype.PChar16,
		stype.PBool, stype.PU8,
	}
	for i, w := range want {
		ty := m.Params[i].Type
		if ty.Kind != stype.KPrim || ty.Prim != w {
			t.Errorf("param %d = %s, want %s", i, ty, w)
		}
	}
	s := m.Params[12].Type
	if s.Kind != stype.KSequence || s.ElemType.Prim != stype.PChar8 {
		t.Errorf("string = %s", s)
	}
	w := m.Params[13].Type
	if w.Kind != stype.KSequence || w.ElemType.Prim != stype.PChar16 {
		t.Errorf("wstring = %s", w)
	}
}

func TestModulesAndScoping(t *testing.T) {
	u := MustParse(`
		module Geo {
			struct Point { float x; float y; };
			module Deep {
				struct Seg { Point a; Point b; };
			};
			interface Ops {
				Point mid(in Deep::Seg s);
			};
		};
	`)
	if u.Lookup("Geo::Point") == nil {
		t.Fatal("Geo::Point missing")
	}
	seg := u.Lookup("Geo::Deep::Seg")
	if seg == nil {
		t.Fatal("Geo::Deep::Seg missing")
	}
	// Point inside Deep::Seg resolves outward to Geo::Point.
	if seg.Type.Fields[0].Type.Name != "Geo::Point" {
		t.Errorf("Seg.a = %q", seg.Type.Fields[0].Type.Name)
	}
	ops := u.Lookup("Geo::Ops")
	m := ops.Type.Methods[0]
	if m.Params[0].Type.Name != "Geo::Deep::Seg" {
		t.Errorf("mid param = %q", m.Params[0].Type.Name)
	}
	if m.Result.Name != "Geo::Point" {
		t.Errorf("mid result = %q", m.Result.Name)
	}
}

func TestGlobalScopedReference(t *testing.T) {
	u := MustParse(`
		struct Point { float x; float y; };
		module M {
			struct Point { double a; double b; };
			struct Use { ::Point global; Point local; };
		};
	`)
	use := u.Lookup("M::Use").Type
	if use.Fields[0].Type.Name != "Point" {
		t.Errorf("global = %q", use.Fields[0].Type.Name)
	}
	if use.Fields[1].Type.Name != "M::Point" {
		t.Errorf("local = %q", use.Fields[1].Type.Name)
	}
}

func TestUnion(t *testing.T) {
	u := MustParse(`
		union Number switch (long) {
			case 1: long i;
			case 2: float f;
			default: char c;
		};
	`)
	n := u.Lookup("Number")
	if n == nil || n.Type.Kind != stype.KUnion || len(n.Type.Fields) != 3 {
		t.Fatalf("Number = %+v", n)
	}
	if n.Type.Fields[2].Name != "c" {
		t.Errorf("default member = %+v", n.Type.Fields[2])
	}
}

func TestEnum(t *testing.T) {
	u := MustParse(`enum Color { red, green, blue };`)
	c := u.Lookup("Color")
	if c == nil || len(c.Type.EnumNames) != 3 {
		t.Fatalf("Color = %+v", c)
	}
}

func TestTypedefArray(t *testing.T) {
	u := MustParse(`typedef float matrix[3][4];`)
	m := u.Lookup("matrix").Type
	if m.Kind != stype.KArray || m.Len != 3 || m.ElemType.Len != 4 {
		t.Fatalf("matrix = %s", m)
	}
}

func TestBoundedSequenceAndString(t *testing.T) {
	u := MustParse(`
		typedef sequence<long, 10> Ten;
		typedef string<32> Name;
	`)
	if u.Lookup("Ten").Type.Kind != stype.KSequence {
		t.Error("bounded sequence")
	}
	if u.Lookup("Name").Type.Kind != stype.KSequence {
		t.Error("bounded string")
	}
}

func TestAttributes(t *testing.T) {
	u := MustParse(`
		interface Account {
			readonly attribute long balance;
			attribute string owner;
		};
	`)
	a := u.Lookup("Account").Type
	names := make([]string, len(a.Methods))
	for i, m := range a.Methods {
		names[i] = m.Name
	}
	want := "_get_balance _get_owner _set_owner"
	if strings.Join(names, " ") != want {
		t.Errorf("methods = %v, want %s", names, want)
	}
}

func TestOneway(t *testing.T) {
	u := MustParse(`
		interface Chan {
			oneway void send(in long payload);
		};
	`)
	m := u.Lookup("Chan").Type.Methods[0]
	if !m.Oneway {
		t.Error("oneway not recorded")
	}
}

func TestInterfaceInheritanceAndForward(t *testing.T) {
	u := MustParse(`
		interface Base { void ping(); };
		interface Fwd;
		interface Fwd : Base { void pong(in Fwd other); };
	`)
	fwd := u.Lookup("Fwd")
	if fwd == nil || fwd.Type.Super != "Base" {
		t.Fatalf("Fwd = %+v", fwd)
	}
	if len(fwd.Type.Methods) != 1 {
		t.Errorf("methods = %+v", fwd.Type.Methods)
	}
	if fwd.Type.Methods[0].Params[0].Type.Name != "Fwd" {
		t.Errorf("self reference = %q", fwd.Type.Methods[0].Params[0].Type.Name)
	}
}

func TestObjectReferencesInStructs(t *testing.T) {
	u := MustParse(`
		interface Callback { void done(in long code); };
		struct Job { long id; Callback notify; };
	`)
	job := u.Lookup("Job").Type
	if job.Fields[1].Type.Name != "Callback" {
		t.Errorf("notify = %+v", job.Fields[1].Type)
	}
}

func TestConstIgnored(t *testing.T) {
	u := MustParse(`
		const long MAX = 17;
		struct S { long x; };
	`)
	if u.Lookup("S") == nil {
		t.Error("declaration after const lost")
	}
	if u.Lookup("MAX") != nil {
		t.Error("const should not declare a type")
	}
}

// errorCases are rejected sources and a substring of each one's error.
var errorCases = []struct {
	src  string
	want string
}{
	{`interface I { void f(in any x); };`, "any"},
	{`exception E { long code; };`, "exceptions"},
	{`interface I { void f(in long x) raises (E); };`, "raises"},
	{`interface I { void f(long x); };`, "in/out/inout"},
	{`interface I { oneway long bad(in long x); };`, "oneway"},
	{`struct S { unknown u; };`, "unresolved"},
	{`typedef fixed<9,2> money;`, "fixed"},
	{`struct S { long x; }`, "expected"},
	{`module M { struct S { long x; };`, "unterminated"},
	{`struct S { long x; }; struct S { long y; };`, "duplicate"},
}

func TestErrors(t *testing.T) {
	for _, c := range errorCases {
		_, err := Parse("t.idl", c.src)
		if err == nil {
			t.Errorf("Parse(%q) succeeded, want error %q", c.src, c.want)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("Parse(%q) error = %v, want containing %q", c.src, err, c.want)
		}
	}
}

func TestPragmaSkipped(t *testing.T) {
	u := MustParse(`
		#pragma prefix "example.com"
		struct S { long x; };
	`)
	if u.Lookup("S") == nil {
		t.Error("pragma broke parsing")
	}
}
