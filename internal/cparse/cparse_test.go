package cparse

import (
	"strings"
	"testing"

	"repro/internal/stype"
)

// figure2 is the C declaration of Figure 2 of the paper, verbatim.
const figure2 = `
typedef float point[2];
void fitter(point pts[], int count, point *start, point *end);
`

func TestFigure2Fitter(t *testing.T) {
	u, err := Parse("fitter.h", figure2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	point := u.Lookup("point")
	if point == nil {
		t.Fatal("point not declared")
	}
	if point.Type.Kind != stype.KArray || point.Type.Len != 2 {
		t.Fatalf("point = %s", point.Type)
	}
	if point.Type.ElemType.Kind != stype.KPrim || point.Type.ElemType.Prim != stype.PF32 {
		t.Errorf("point element = %s", point.Type.ElemType)
	}
	fitter := u.Lookup("fitter")
	if fitter == nil {
		t.Fatal("fitter not declared")
	}
	fn := fitter.Type
	if fn.Kind != stype.KFunc || fn.Result != nil {
		t.Fatalf("fitter = %s", fn)
	}
	if len(fn.Params) != 4 {
		t.Fatalf("fitter has %d params", len(fn.Params))
	}
	wantNames := []string{"pts", "count", "start", "end"}
	for i, n := range wantNames {
		if fn.Params[i].Name != n {
			t.Errorf("param %d = %q, want %q", i, fn.Params[i].Name, n)
		}
	}
	pts := fn.Params[0].Type
	if pts.Kind != stype.KArray || pts.Len != -1 {
		t.Errorf("pts = %s", pts)
	}
	if pts.ElemType.Kind != stype.KNamed || pts.ElemType.Target == nil {
		t.Errorf("pts element unresolved: %s", pts.ElemType)
	}
	count := fn.Params[1].Type
	if count.Kind != stype.KPrim || count.Prim != stype.PI32 {
		t.Errorf("count = %s", count)
	}
	start := fn.Params[2].Type
	if start.Kind != stype.KPointer || start.ElemType.Name != "point" {
		t.Errorf("start = %s", start)
	}
}

func TestStructDefinition(t *testing.T) {
	u := MustParse(`
		struct Point { float x; float y; };
		struct Line { struct Point start; struct Point end; };
	`)
	pt := u.Lookup("Point")
	if pt == nil || pt.Type.Kind != stype.KStruct || len(pt.Type.Fields) != 2 {
		t.Fatalf("Point = %+v", pt)
	}
	line := u.Lookup("Line")
	if line == nil || len(line.Type.Fields) != 2 {
		t.Fatalf("Line = %+v", line)
	}
	if line.Type.Fields[0].Type.Kind != stype.KNamed || line.Type.Fields[0].Type.Target != pt {
		t.Errorf("Line.start = %s", line.Type.Fields[0].Type)
	}
}

func TestTypedefStructIdiom(t *testing.T) {
	u := MustParse(`typedef struct Point { float x; float y; } Point;`)
	pt := u.Lookup("Point")
	if pt == nil || pt.Type.Kind != stype.KStruct {
		t.Fatalf("Point = %+v", pt)
	}
	if len(u.Names()) != 1 {
		t.Errorf("declared names = %v, want just Point", u.Names())
	}
}

func TestAnonymousStructTypedef(t *testing.T) {
	u := MustParse(`typedef struct { int a; char b; } Pair;`)
	pair := u.Lookup("Pair")
	if pair == nil || pair.Type.Kind != stype.KStruct || len(pair.Type.Fields) != 2 {
		t.Fatalf("Pair = %+v", pair)
	}
}

func TestNestedAnonymousStruct(t *testing.T) {
	u := MustParse(`struct Outer { struct { int x; } inner; int y; };`)
	outer := u.Lookup("Outer")
	if outer.Type.Fields[0].Type.Kind != stype.KStruct {
		t.Errorf("inner = %s", outer.Type.Fields[0].Type)
	}
}

func TestUnion(t *testing.T) {
	u := MustParse(`union Number { int i; float f; double d; };`)
	n := u.Lookup("Number")
	if n == nil || n.Type.Kind != stype.KUnion || len(n.Type.Fields) != 3 {
		t.Fatalf("Number = %+v", n)
	}
}

func TestEnum(t *testing.T) {
	u := MustParse(`enum Color { RED, GREEN = 5, BLUE };`)
	c := u.Lookup("Color")
	if c == nil || c.Type.Kind != stype.KEnum {
		t.Fatalf("Color = %+v", c)
	}
	if len(c.Type.EnumNames) != 3 || c.Type.EnumNames[2] != "BLUE" {
		t.Errorf("enum names = %v", c.Type.EnumNames)
	}
}

func TestIntegerTypesILP32(t *testing.T) {
	u := MustParse(`
		void f(char a, signed char b, unsigned char c, short d,
		       unsigned short e, int g, unsigned int h, long i,
		       unsigned long j, long long k, unsigned long long l,
		       _Bool m, wchar_t n);
	`)
	fn := u.Lookup("f").Type
	want := []stype.Prim{
		stype.PChar8, stype.PI8, stype.PU8, stype.PI16, stype.PU16,
		stype.PI32, stype.PU32, stype.PI32, stype.PU32, stype.PI64,
		stype.PU64, stype.PBool, stype.PChar16,
	}
	for i, w := range want {
		got := fn.Params[i].Type
		if got.Kind != stype.KPrim || got.Prim != w {
			t.Errorf("param %d (%s) = %s, want %s", i, fn.Params[i].Name, got, w)
		}
	}
}

func TestIntegerTypesLP64(t *testing.T) {
	u, err := Parse("t.h", `void f(long a, unsigned long b);`, Config{Model: ModelLP64})
	if err != nil {
		t.Fatal(err)
	}
	fn := u.Lookup("f").Type
	if fn.Params[0].Type.Prim != stype.PI64 {
		t.Errorf("LP64 long = %s", fn.Params[0].Type)
	}
	if fn.Params[1].Type.Prim != stype.PU64 {
		t.Errorf("LP64 unsigned long = %s", fn.Params[1].Type)
	}
}

func TestPointerDeclarators(t *testing.T) {
	u := MustParse(`void f(int *p, int **pp, const char *s);`)
	fn := u.Lookup("f").Type
	p := fn.Params[0].Type
	if p.Kind != stype.KPointer || p.ElemType.Prim != stype.PI32 {
		t.Errorf("p = %s", p)
	}
	pp := fn.Params[1].Type
	if pp.Kind != stype.KPointer || pp.ElemType.Kind != stype.KPointer {
		t.Errorf("pp = %s", pp)
	}
	s := fn.Params[2].Type
	if s.Kind != stype.KPointer || s.ElemType.Prim != stype.PChar8 {
		t.Errorf("s = %s", s)
	}
}

func TestMultiDimensionalArray(t *testing.T) {
	u := MustParse(`typedef float matrix[3][4];`)
	m := u.Lookup("matrix").Type
	if m.Kind != stype.KArray || m.Len != 3 {
		t.Fatalf("matrix = %s", m)
	}
	if m.ElemType.Kind != stype.KArray || m.ElemType.Len != 4 {
		t.Errorf("matrix rows = %s", m.ElemType)
	}
}

func TestArrayOfPointersVsPointerToArray(t *testing.T) {
	u := MustParse(`
		typedef int *aop[3];
		typedef int (*poa)[3];
	`)
	aop := u.Lookup("aop").Type
	if aop.Kind != stype.KArray || aop.ElemType.Kind != stype.KPointer {
		t.Errorf("aop = %s, want array of pointers", aop)
	}
	poa := u.Lookup("poa").Type
	if poa.Kind != stype.KPointer || poa.ElemType.Kind != stype.KArray {
		t.Errorf("poa = %s, want pointer to array", poa)
	}
}

func TestFunctionPointerTypedef(t *testing.T) {
	u := MustParse(`typedef void (*callback)(int code, float value);`)
	cb := u.Lookup("callback").Type
	if cb.Kind != stype.KPointer {
		t.Fatalf("callback = %s, want pointer", cb)
	}
	fn := cb.ElemType
	if fn.Kind != stype.KFunc || len(fn.Params) != 2 || fn.Result != nil {
		t.Errorf("callback target = %s", fn)
	}
}

func TestFunctionReturningPointer(t *testing.T) {
	u := MustParse(`char *name(int id);`)
	fn := u.Lookup("name").Type
	if fn.Kind != stype.KFunc {
		t.Fatalf("name = %s", fn)
	}
	if fn.Result == nil || fn.Result.Kind != stype.KPointer {
		t.Errorf("result = %s", fn.Result)
	}
}

func TestBitfields(t *testing.T) {
	u := MustParse(`struct Flags { unsigned int ready : 1; int level : 4; };`)
	f := u.Lookup("Flags").Type
	ready := f.Fields[0].Type
	if ready.Ann.Range == nil || ready.Ann.Range.Lo != "0" || ready.Ann.Range.Hi != "1" {
		t.Errorf("ready range = %+v", ready.Ann.Range)
	}
	level := f.Fields[1].Type
	if level.Ann.Range == nil || level.Ann.Range.Lo != "-8" || level.Ann.Range.Hi != "7" {
		t.Errorf("level range = %+v", level.Ann.Range)
	}
}

func TestMultipleDeclaratorsShareBase(t *testing.T) {
	u := MustParse(`struct P { float x, y; };`)
	p := u.Lookup("P").Type
	if len(p.Fields) != 2 || p.Fields[1].Name != "y" {
		t.Fatalf("fields = %+v", p.Fields)
	}
	if p.Fields[0].Type == p.Fields[1].Type {
		t.Error("field type nodes must be distinct for per-use annotation")
	}
}

func TestVoidParameterList(t *testing.T) {
	u := MustParse(`int answer(void);`)
	fn := u.Lookup("answer").Type
	if len(fn.Params) != 0 {
		t.Errorf("params = %+v", fn.Params)
	}
}

func TestCommentsAndPreprocessor(t *testing.T) {
	u := MustParse(`
		#include <math.h>
		/* the point type */
		typedef float point[2]; // 2-D
	`)
	if u.Lookup("point") == nil {
		t.Error("point not parsed")
	}
}

// errorCases are rejected sources and a substring of each one's error.
var errorCases = []struct {
	src  string
	want string
}{
	{`void f(int x, ...);`, "variadic"},
	{`typedef int;`, "name"},
	{`struct;`, "tag"},
	{`typedef unsigned signed int x;`, "signed"},
	{`typedef short long x;`, "long"},
	{`typedef int x; typedef float x;`, "duplicate"},
	{`void f(undeclared_t x);`, "unresolved"},
	{`typedef float point[2`, "expected"},
	{`struct S { int x : 99; };`, "bit-field"},
	{`typedef long long long x;`, "long"},
}

func TestErrors(t *testing.T) {
	for _, c := range errorCases {
		_, err := Parse("t.h", c.src, Config{})
		if err == nil {
			t.Errorf("Parse(%q) succeeded, want error containing %q", c.src, c.want)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("Parse(%q) error = %v, want containing %q", c.src, err, c.want)
		}
	}
}

func TestGlobalVariablesAreDropped(t *testing.T) {
	u := MustParse(`int counter; void f(int x);`)
	if u.Lookup("counter") != nil {
		t.Error("global variable should not be declared")
	}
	if u.Lookup("f") == nil {
		t.Error("function after variable lost")
	}
}

func TestStorageClassesIgnored(t *testing.T) {
	u := MustParse(`extern void f(int x); static int g(void);`)
	if u.Lookup("f") == nil || u.Lookup("g") == nil {
		t.Error("storage classes broke parsing")
	}
}
