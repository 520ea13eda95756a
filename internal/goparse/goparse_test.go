package goparse

import (
	"strings"
	"testing"

	"repro/internal/stype"
)

// fitter is the Go spelling of the paper's running example: the service
// a Go team would already have written, no annotations needed because
// the language states them (values are nonnull, pointers are optional).
const fitter = `
package fitter

type Point struct {
	X float32
	Y float32
}

type Line struct {
	Start Point
	End   Point
}

type Fitter interface {
	Fit(pts []Point) Line
}
`

func TestFitterPoint(t *testing.T) {
	u := MustParse(fitter)
	pt := u.Lookup("Point")
	if pt == nil || pt.Type.Kind != stype.KClass {
		t.Fatalf("Point = %+v", pt)
	}
	if len(pt.Type.Fields) != 2 {
		t.Fatalf("Point fields = %+v", pt.Type.Fields)
	}
	for i, name := range []string{"X", "Y"} {
		f := pt.Type.Fields[i]
		if f.Name != name || f.Type.Prim != stype.PF32 {
			t.Errorf("field %d = %s %s", i, f.Type, f.Name)
		}
	}
}

func TestValueSemantics(t *testing.T) {
	u := MustParse(fitter)
	line := u.Lookup("Line")
	if line == nil {
		t.Fatal("Line missing")
	}
	start := line.Type.Fields[0].Type
	if start.Kind != stype.KNamed || start.Name != "Point" || start.Target == nil {
		t.Fatalf("Start = %s", start)
	}
	// A bare struct-typed field is a value: stamped nonnull+noalias so
	// lowering concludes containment, like §3.4's Line contains Points.
	if !start.Ann.NonNull || !start.Ann.NoAlias {
		t.Errorf("Start ann = %+v, want nonnull+noalias", start.Ann)
	}
	if line.Type.Fields[0].Type == line.Type.Fields[1].Type {
		t.Error("Start and End must be distinct nodes for per-use annotation")
	}
}

func TestInterfaceMethods(t *testing.T) {
	u := MustParse(fitter)
	fit := u.Lookup("Fitter")
	if fit == nil || fit.Type.Kind != stype.KInterface {
		t.Fatalf("Fitter = %+v", fit)
	}
	if len(fit.Type.Methods) != 1 {
		t.Fatalf("methods = %+v", fit.Type.Methods)
	}
	m := fit.Type.Methods[0]
	if m.Name != "Fit" || len(m.Params) != 1 || m.Params[0].Name != "pts" {
		t.Fatalf("Fit = %+v", m)
	}
	if m.Params[0].Type.Kind != stype.KSequence {
		t.Errorf("pts = %s", m.Params[0].Type)
	}
	if m.Result == nil || m.Result.Kind != stype.KNamed || m.Result.Name != "Line" {
		t.Errorf("result = %s", m.Result)
	}
	// Interface-typed uses stay nullable references; struct results are
	// values.
	if !m.Result.Ann.NonNull {
		t.Errorf("Line result not stamped as a value: %+v", m.Result.Ann)
	}
}

func TestPrimitives(t *testing.T) {
	src := `package p
type T struct {
	A bool
	B int8
	C uint8
	D byte
	E int16
	F uint16
	G int32
	H uint32
	I int64
	J uint64
	K int
	L uint
	M float32
	N float64
}`
	want := []stype.Prim{
		stype.PBool, stype.PI8, stype.PU8, stype.PU8, stype.PI16, stype.PU16,
		stype.PI32, stype.PU32, stype.PI64, stype.PU64, stype.PI64, stype.PU64,
		stype.PF32, stype.PF64,
	}
	d := MustParse(src).Lookup("T")
	if len(d.Type.Fields) != len(want) {
		t.Fatalf("fields = %+v", d.Type.Fields)
	}
	for i, w := range want {
		if f := d.Type.Fields[i]; f.Type.Kind != stype.KPrim || f.Type.Prim != w {
			t.Errorf("field %s = %s, want prim %v", f.Name, f.Type, w)
		}
	}
}

func TestRuneAndString(t *testing.T) {
	d := MustParse("package p\ntype T struct {\n\tR rune\n\tS string\n}").Lookup("T")
	r := d.Type.Fields[0].Type
	if r.Prim != stype.PI32 || r.Ann.AsChar == nil || !*r.Ann.AsChar {
		t.Errorf("rune = %s ann %+v", r, r.Ann)
	}
	s := d.Type.Fields[1].Type
	if s.Kind != stype.KSequence || s.ElemType.Prim != stype.PChar8 {
		t.Errorf("string = %s", s)
	}
}

func TestCompositeTypes(t *testing.T) {
	src := `package p
type T struct {
	Arr   [4]int32
	Slice []float64
	M     map[string]int32
	Opt   *T
}`
	d := MustParse(src).Lookup("T")
	arr := d.Type.Fields[0].Type
	if arr.Kind != stype.KArray || arr.Len != 4 || arr.ElemType.Prim != stype.PI32 {
		t.Errorf("Arr = %s", arr)
	}
	sl := d.Type.Fields[1].Type
	if sl.Kind != stype.KSequence || sl.ElemType.Prim != stype.PF64 {
		t.Errorf("Slice = %s", sl)
	}
	m := d.Type.Fields[2].Type
	if m.Kind != stype.KSequence || m.ElemType.Kind != stype.KStruct {
		t.Fatalf("M = %s", m)
	}
	entry := m.ElemType
	if len(entry.Fields) != 2 || entry.Fields[0].Name != "Key" || entry.Fields[1].Name != "Value" {
		t.Errorf("map entry = %+v", entry.Fields)
	}
	opt := d.Type.Fields[3].Type
	if opt.Kind != stype.KPointer || opt.ElemType.Name != "T" {
		t.Errorf("Opt = %s", opt)
	}
}

func TestFieldGroupsShareNoNodes(t *testing.T) {
	d := MustParse("package p\ntype T struct {\n\tA, B int32\n}").Lookup("T")
	if len(d.Type.Fields) != 2 {
		t.Fatalf("fields = %+v", d.Type.Fields)
	}
	if d.Type.Fields[0].Type == d.Type.Fields[1].Type {
		t.Error("grouped names must get distinct type nodes")
	}
}

func TestStructTags(t *testing.T) {
	src := "package p\n" +
		"type T struct {\n" +
		"\tC uint16 `mbird:\"char\"`\n" +
		"\tN []byte `mbird:\"length=16\"`\n" +
		"\tJ int32  `json:\"j,omitempty\"`\n" +
		"\tB *T     `json:\"b\" mbird:\"nonnull\"`\n" +
		"}"
	d := MustParse(src).Lookup("T")
	c := d.Type.Fields[0].Type
	if c.Ann.AsChar == nil || !*c.Ann.AsChar {
		t.Errorf("C ann = %+v", c.Ann)
	}
	n := d.Type.Fields[1].Type
	if n.Ann.FixedLen != 16 {
		t.Errorf("N ann = %+v", n.Ann)
	}
	if j := d.Type.Fields[2].Type; j.Ann.AsChar != nil || j.Ann.NonNull {
		t.Errorf("foreign tag leaked annotations: %+v", j.Ann)
	}
	if b := d.Type.Fields[3].Type; !b.Ann.NonNull {
		t.Errorf("B ann = %+v", b.Ann)
	}
}

func TestDoubleQuotedTag(t *testing.T) {
	// An interpreted string literal tag keeps its escapes in the token;
	// the parser must unquote before splitting key:"value" pairs.
	src := "package p\ntype T struct {\n\tC uint16 \"mbird:\\\"char\\\"\"\n}"
	d := MustParse(src).Lookup("T")
	if c := d.Type.Fields[0].Type; c.Ann.AsChar == nil || !*c.Ann.AsChar {
		t.Errorf("C ann = %+v", c.Ann)
	}
}

func TestBadTagRejected(t *testing.T) {
	src := "package p\ntype T struct {\n\tC uint16 `mbird:\"range=zz\"`\n}"
	if _, err := Parse("t.go", src); err == nil || !strings.Contains(err.Error(), "struct tag") {
		t.Errorf("err = %v", err)
	}
}

func TestEmbedding(t *testing.T) {
	src := `package p
type Base struct {
	ID int64
}
type Child struct {
	Base
	Name string
}`
	d := MustParse(src).Lookup("Child")
	if len(d.Type.Fields) != 2 {
		t.Fatalf("fields = %+v", d.Type.Fields)
	}
	emb := d.Type.Fields[0]
	if !emb.Embedded || emb.Name != "Base" || emb.Type.Kind != stype.KNamed {
		t.Errorf("embedded field = %+v", emb)
	}
	if d.Type.Fields[1].Name != "Name" {
		t.Errorf("fields = %+v", d.Type.Fields)
	}
}

func TestEmbeddedPointerStaysReference(t *testing.T) {
	src := `package p
type Base struct {
	ID int64
}
type Child struct {
	*Base
	N int32
}`
	d := MustParse(src).Lookup("Child")
	f := d.Type.Fields[0]
	// *Base is embedded, so it promotes Base's methods, but it stays a
	// pointer: promoting fields through a nullable indirection would make
	// the record's shape depend on runtime state.
	if !f.Embedded || f.Name != "Base" || f.Type.Kind != stype.KPointer {
		t.Errorf("embedded pointer = %+v", f)
	}
}

func TestASIEmbeddingVsTypeName(t *testing.T) {
	// Newline placement is the only thing separating an embedded field
	// from a name-and-type pair — the semicolon-insertion rule.
	src := "package p\ntype A struct{ N int32 }\ntype T struct {\n\tA\n\tX int64\n}"
	d := MustParse(src).Lookup("T")
	if len(d.Type.Fields) != 2 || !d.Type.Fields[0].Embedded || d.Type.Fields[1].Embedded {
		t.Fatalf("fields = %+v", d.Type.Fields)
	}
	if d.Type.Fields[1].Name != "X" || d.Type.Fields[1].Type.Prim != stype.PI64 {
		t.Errorf("X = %+v", d.Type.Fields[1])
	}
}

func TestInterfaceEmbedding(t *testing.T) {
	src := `package p
type Reader interface {
	Read(n int32) int32
}
type Closer interface {
	Close()
}
type ReadCloser interface {
	Reader
	Closer
	Reset()
}`
	d := MustParse(src).Lookup("ReadCloser")
	if got := strings.Join(d.Type.Embeds, ","); got != "Reader,Closer" {
		t.Errorf("embeds = %q", got)
	}
	if len(d.Type.Methods) != 1 || d.Type.Methods[0].Name != "Reset" {
		t.Errorf("methods = %+v", d.Type.Methods)
	}
}

func TestUndeclaredEmbedRejected(t *testing.T) {
	src := "package p\ntype I interface {\n\tMissing\n}"
	if _, err := Parse("t.go", src); err == nil || !strings.Contains(err.Error(), "undeclared") {
		t.Errorf("err = %v", err)
	}
}

func TestReceiverMethods(t *testing.T) {
	src := `package p
type Counter struct {
	N int64
}
func (c *Counter) Add(delta int64) int64 { c.N += delta; return c.N }
func (Counter) Zero() {}
func Reset(c *Counter) {}
`
	u := MustParse(src)
	d := u.Lookup("Counter")
	if len(d.Type.Methods) != 2 {
		t.Fatalf("methods = %+v", d.Type.Methods)
	}
	if d.Type.Methods[0].Name != "Add" || len(d.Type.Methods[0].Params) != 1 {
		t.Errorf("Add = %+v", d.Type.Methods[0])
	}
	if d.Type.Methods[1].Name != "Zero" || d.Type.Methods[1].Result != nil {
		t.Errorf("Zero = %+v", d.Type.Methods[1])
	}
	fn := u.Lookup("Reset")
	if fn == nil || fn.Type.Kind != stype.KFunc {
		t.Errorf("Reset = %+v", fn)
	}
}

func TestTypeAliases(t *testing.T) {
	src := `package p
type D struct {
	N int32
}
type Alias = D
type Defined D
type T struct {
	A Alias
	B Defined
}`
	d := MustParse(src).Lookup("T")
	for _, f := range d.Type.Fields {
		if f.Type.Kind != stype.KNamed || f.Type.Target == nil {
			t.Errorf("%s = %+v", f.Name, f.Type)
		}
		// Both resolve through the chain to a struct: value semantics.
		if !f.Type.Ann.NonNull || !f.Type.Ann.NoAlias {
			t.Errorf("%s not stamped as a value: %+v", f.Name, f.Type.Ann)
		}
	}
}

func TestPackageAndImports(t *testing.T) {
	src := `package p

import "fmt"
import (
	"strings"
	alias "net/http"
	_ "embed"
)

type T struct {
	N int32
}`
	if d := MustParse(src).Lookup("T"); d == nil {
		t.Fatal("T missing")
	}
}

func TestErrors(t *testing.T) {
	cases := []struct{ src, want string }{
		{"type T struct{}", "package"},
		{"package p\nconst N = 3", "const"},
		{"package p\nvar x int32", "var"},
		{"package p\ntype T[E any] struct{ F E }", "generic"},
		{"package p\ntype T struct {\n\tC chan int32\n}", "channel"},
		{"package p\ntype T struct {\n\tF func()\n}", "function-typed"},
		{"package p\ntype T struct {\n\tA any\n}", "empty interface"},
		{"package p\ntype T struct {\n\tE error\n}", "error values"},
		{"package p\ntype T struct {\n\tX fmt.Stringer\n}", "qualified"},
		{"package p\ntype I interface {\n\tM() (int32, int32)\n}", "multiple return"},
		{"package p\ntype I interface {\n\tM(int32)\n}", "parameter names"},
		{"package p\ntype T struct {\n\tN int32\n\tN int64\n}", "duplicate field"},
		{"package p\ntype I interface {\n\tM()\n\tM()\n}", "duplicate method"},
		{"package p\nfunc (m Missing) M() {}", "undeclared type"},
		{"package p\ntype I interface{}\nfunc (i I) M() {}", "interface"},
		{"package p\ntype T struct{ N int32 }\nfunc (t T) M() {}\nfunc (t T) M() {}", "redeclared"},
		{"package p\ntype T struct {\n\tA [x]int32\n}", "array length"},
		{"package p\ntype T struct {\n\tA [-1]int32\n}", "array length"},
		{"package p\ntype T struct {\n\tU uintptr\n}", "not portable"},
		{"package p\ntype T struct {\n\tX struct { y", "expected '}', found 'EOF'"},
		{"package p\ntype T struct {\n\tI interface{ M() }\n}", "inline interface"},
	}
	for _, c := range cases {
		if _, err := Parse("t.go", c.src); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Parse(%q) err = %v, want mention of %q", c.src, err, c.want)
		}
	}
}

func TestUnexportedParsedNotDropped(t *testing.T) {
	// The parser keeps unexported members (lowering skips them): the
	// declaration is still the full source shape for display.
	src := `package p
type T struct {
	Exported int32
	hidden   int64
}`
	d := MustParse(src).Lookup("T")
	if len(d.Type.Fields) != 2 {
		t.Errorf("fields = %+v", d.Type.Fields)
	}
}

func TestRawStringTag(t *testing.T) {
	src := "package p\ntype T struct {\n\tS []byte `mbird:\"length=8\"`\n}"
	d := MustParse(src).Lookup("T")
	if s := d.Type.Fields[0].Type; s.Ann.FixedLen != 8 {
		t.Errorf("S ann = %+v", s.Ann)
	}
}

func TestRecursiveStruct(t *testing.T) {
	src := `package p
type Node struct {
	Val  int32
	Next *Node
}`
	d := MustParse(src).Lookup("Node")
	next := d.Type.Fields[1].Type
	if next.Kind != stype.KPointer || next.ElemType.Target == nil {
		t.Errorf("Next = %s", next)
	}
}
