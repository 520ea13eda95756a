package javaparse

import (
	"strings"
	"testing"

	"repro/internal/stype"
)

// figure1 is the Java source of Figure 1 of the paper (method bodies
// elided as in the figure, with representative members filled in).
const figure1 = `
public class Point {
    public Point(float x, float y) { this.x = x; this.y = y; }
    public float distance(Point other) { return 0; }
    private float x;
    private float y;
}

public class Line {
    public Line(Point s, Point e) { start = s; end = e; }
    public float length() { return start.distance(end); }
    private Point start;
    private Point end;
}

public class PointVector extends java.util.Vector;
`

// figure5 is the ideal Java interface of Figure 5.
const figure5 = `
public interface JavaIdeal {
    Line fitter(PointVector pts);
}
`

func TestFigure1Point(t *testing.T) {
	u := MustParse(figure1)
	pt := u.Lookup("Point")
	if pt == nil || pt.Type.Kind != stype.KClass {
		t.Fatalf("Point = %+v", pt)
	}
	if len(pt.Type.Fields) != 2 {
		t.Fatalf("Point has %d fields, want 2 (constructors/methods excluded from fields)", len(pt.Type.Fields))
	}
	for i, name := range []string{"x", "y"} {
		f := pt.Type.Fields[i]
		if f.Name != name || f.Type.Prim != stype.PF32 {
			t.Errorf("field %d = %s %s", i, f.Type, f.Name)
		}
	}
	// distance is an instance method; the constructor is not recorded.
	if len(pt.Type.Methods) != 1 || pt.Type.Methods[0].Name != "distance" {
		t.Errorf("methods = %+v", pt.Type.Methods)
	}
}

func TestFigure1Line(t *testing.T) {
	u := MustParse(figure1)
	line := u.Lookup("Line")
	if line == nil {
		t.Fatal("Line missing")
	}
	if len(line.Type.Fields) != 2 {
		t.Fatalf("Line fields = %+v", line.Type.Fields)
	}
	start := line.Type.Fields[0]
	if start.Type.Kind != stype.KNamed || start.Type.Name != "Point" || start.Type.Target == nil {
		t.Errorf("start = %s", start.Type)
	}
	end := line.Type.Fields[1]
	if start.Type == end.Type {
		t.Error("start and end must have distinct nodes for per-use annotation")
	}
}

func TestFigure1PointVector(t *testing.T) {
	u := MustParse(figure1)
	pv := u.Lookup("PointVector")
	if pv == nil {
		t.Fatal("PointVector missing")
	}
	if pv.Type.Super != "java.util.Vector" {
		t.Errorf("super = %q", pv.Type.Super)
	}
}

func TestFigure5Interface(t *testing.T) {
	u := MustParse(figure1 + figure5)
	ideal := u.Lookup("JavaIdeal")
	if ideal == nil || ideal.Type.Kind != stype.KInterface {
		t.Fatalf("JavaIdeal = %+v", ideal)
	}
	if len(ideal.Type.Methods) != 1 {
		t.Fatalf("methods = %+v", ideal.Type.Methods)
	}
	m := ideal.Type.Methods[0]
	if m.Name != "fitter" || m.Result == nil || m.Result.Name != "Line" {
		t.Errorf("method = %s", m.Signature())
	}
	if len(m.Params) != 1 || m.Params[0].Type.Name != "PointVector" {
		t.Errorf("params = %+v", m.Params)
	}
}

func TestBuiltinsRegistered(t *testing.T) {
	u := MustParse(`public class Empty {}`)
	vec := u.Lookup("java.util.Vector")
	if vec == nil {
		t.Fatal("Vector builtin missing")
	}
	if vec.Type.Ann.CollectionOf != "java.lang.Object" {
		t.Errorf("Vector default annotation = %+v", vec.Type.Ann)
	}
	if u.Lookup("Vector") == nil || u.Lookup("Vector").Type != vec.Type {
		t.Error("short name Vector should share the builtin node")
	}
	str := u.Lookup("java.lang.String")
	if str == nil || str.Type.Kind != stype.KSequence || str.Type.ElemType.Prim != stype.PChar16 {
		t.Errorf("String builtin = %+v", str)
	}
}

func TestPrimitives(t *testing.T) {
	u := MustParse(`
		class Prims {
			boolean a; byte b; short c; int d; long e;
			char f; float g; double h;
		}
	`)
	want := []stype.Prim{
		stype.PBool, stype.PI8, stype.PI16, stype.PI32, stype.PI64,
		stype.PChar16, stype.PF32, stype.PF64,
	}
	fields := u.Lookup("Prims").Type.Fields
	for i, w := range want {
		if fields[i].Type.Prim != w {
			t.Errorf("field %d = %s, want %s", i, fields[i].Type, w)
		}
	}
}

func TestStaticMembersSkipped(t *testing.T) {
	u := MustParse(`
		class C {
			static int counter = 0;
			static void reset() { counter = 0; }
			static { counter = 1; }
			int live;
		}
	`)
	c := u.Lookup("C").Type
	if len(c.Fields) != 1 || c.Fields[0].Name != "live" {
		t.Errorf("fields = %+v", c.Fields)
	}
	if len(c.Methods) != 0 {
		t.Errorf("methods = %+v", c.Methods)
	}
}

func TestFieldInitializersSkipped(t *testing.T) {
	u := MustParse(`
		class C {
			int a = 1 + 2;
			int[] b = { 1, 2, 3 };
			String s = "x, y; z";
			float c = f(1, g(2));
			int d;
		}
	`)
	c := u.Lookup("C").Type
	if len(c.Fields) != 5 {
		t.Fatalf("fields = %+v", c.Fields)
	}
}

func TestMultipleFieldDeclarators(t *testing.T) {
	u := MustParse(`class P { float x, y; }`)
	p := u.Lookup("P").Type
	if len(p.Fields) != 2 || p.Fields[1].Name != "y" {
		t.Fatalf("fields = %+v", p.Fields)
	}
}

func TestArrays(t *testing.T) {
	u := MustParse(`
		class A {
			int[] ints;
			float[][] grid;
			double trailing[];
			Point[] pts;
		}
		class Point { float x; float y; }
	`)
	a := u.Lookup("A").Type
	if a.Fields[0].Type.Kind != stype.KArray {
		t.Errorf("ints = %s", a.Fields[0].Type)
	}
	grid := a.Fields[1].Type
	if grid.Kind != stype.KArray || grid.ElemType.Kind != stype.KArray {
		t.Errorf("grid = %s", grid)
	}
	if a.Fields[2].Type.Kind != stype.KArray {
		t.Errorf("trailing[] = %s", a.Fields[2].Type)
	}
}

func TestMethodsWithBodiesAndThrows(t *testing.T) {
	u := MustParse(`
		class C {
			public int compute(int x) throws java.io.IOException, Bad {
				if (x > 0) { return x; }
				return -x;
			}
			protected native void poke(long addr);
			abstract Point make();
		}
		class Point { float x; float y; }
		class Bad {}
	`)
	c := u.Lookup("C").Type
	if len(c.Methods) != 3 {
		t.Fatalf("methods = %+v", c.Methods)
	}
	if c.Methods[0].Result == nil || c.Methods[0].Result.Prim != stype.PI32 {
		t.Errorf("compute result = %s", c.Methods[0].Result)
	}
	if c.Methods[1].Result != nil {
		t.Errorf("poke result = %s", c.Methods[1].Result)
	}
}

func TestInterfaceMethods(t *testing.T) {
	u := MustParse(`
		interface Shape {
			double area();
			void scale(double factor);
		}
	`)
	s := u.Lookup("Shape").Type
	if s.Kind != stype.KInterface || len(s.Methods) != 2 {
		t.Fatalf("Shape = %+v", s)
	}
}

func TestPackageAndImports(t *testing.T) {
	u := MustParse(`
		package com.example.geo;
		import java.util.Vector;
		import java.io.*;
		public class G { int x; }
	`)
	if u.Lookup("G") == nil {
		t.Error("class after package/imports lost")
	}
}

func TestExtendsAndImplements(t *testing.T) {
	u := MustParse(`
		class Base { int b; }
		interface I1 {}
		interface I2 {}
		class Derived extends Base implements I1, I2 { int d; }
	`)
	d := u.Lookup("Derived").Type
	if d.Super != "Base" {
		t.Errorf("super = %q", d.Super)
	}
}

// errorCases are rejected sources and a substring of each one's error.
var errorCases = []struct {
	src  string
	want string
}{
	{`class C { Vector<Point> pts; }`, "generics"},
	{`class C { Undeclared u; }`, "unresolved"},
	{`class C { int x`, "end of input"},
	{`class C {} class C {}`, "duplicate"},
	{`int x;`, "expected class or interface"},
}

func TestErrors(t *testing.T) {
	for _, c := range errorCases {
		_, err := Parse("T.java", c.src)
		if err == nil {
			t.Errorf("Parse(%q) succeeded, want error %q", c.src, c.want)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("Parse(%q) error = %v, want containing %q", c.src, err, c.want)
		}
	}
}

func TestQualifiedTypeReference(t *testing.T) {
	u := MustParse(`class C { java.util.Vector v; }`)
	v := u.Lookup("C").Type.Fields[0]
	if v.Type.Name != "java.util.Vector" || v.Type.Target == nil {
		t.Errorf("v = %+v", v.Type)
	}
}

func TestRecursiveClass(t *testing.T) {
	// Figure 8(a): a recursive Java list.
	u := MustParse(`
		public class IntList {
			int value;
			IntList next;
		}
	`)
	l := u.Lookup("IntList").Type
	if l.Fields[1].Type.Name != "IntList" || l.Fields[1].Type.Target == nil {
		t.Errorf("next = %+v", l.Fields[1].Type)
	}
}

// TestImplementsRecorded: implemented interfaces contribute their method
// sets to the class's object port, so the parser records them as Embeds.
func TestImplementsRecorded(t *testing.T) {
	u := MustParse(`
		interface I1 { void a(); }
		interface I2 { void b(); }
		class C implements I1, I2 { int x; }
	`)
	d := u.Lookup("C").Type
	if got := strings.Join(d.Embeds, ","); got != "I1,I2" {
		t.Errorf("embeds = %q", got)
	}
}

// TestInterfaceMultiExtends: an interface may extend several interfaces;
// the first is the Super, the rest are Embeds.
func TestInterfaceMultiExtends(t *testing.T) {
	u := MustParse(`
		interface A { void a(); }
		interface B { void b(); }
		interface C extends A, B { void c(); }
	`)
	d := u.Lookup("C").Type
	if d.Super != "A" {
		t.Errorf("super = %q", d.Super)
	}
	if got := strings.Join(d.Embeds, ","); got != "B" {
		t.Errorf("embeds = %q", got)
	}
}
