package stype

import (
	"strings"
	"testing"
)

// buildFitterUniverse constructs the C-side declarations of Figure 2 by
// hand: typedef float point[2]; void fitter(point pts[], int count,
// point *start, point *end).
func buildFitterUniverse(t *testing.T) *Universe {
	t.Helper()
	u := NewUniverse(LangC)
	point := NewArray(NewPrim(PF32), 2)
	if _, err := u.Add("point", point); err != nil {
		t.Fatal(err)
	}
	fitter := &Type{
		Kind: KFunc,
		Params: []Param{
			{Name: "pts", Type: NewArray(NewNamed("point"), -1)},
			{Name: "count", Type: NewPrim(PI32)},
			{Name: "start", Type: NewPointer(NewNamed("point"))},
			{Name: "end", Type: NewPointer(NewNamed("point"))},
		},
	}
	if _, err := u.Add("fitter", fitter); err != nil {
		t.Fatal(err)
	}
	if err := u.Resolve(); err != nil {
		t.Fatal(err)
	}
	return u
}

// buildJavaUniverse constructs the Figure 1 Java types by hand.
func buildJavaUniverse(t *testing.T) *Universe {
	t.Helper()
	u := NewUniverse(LangJava)
	point := &Type{Kind: KClass, Name: "Point", Fields: []Field{
		{Name: "x", Type: NewPrim(PF32)},
		{Name: "y", Type: NewPrim(PF32)},
	}}
	line := &Type{Kind: KClass, Name: "Line", Fields: []Field{
		{Name: "start", Type: NewNamed("Point")},
		{Name: "end", Type: NewNamed("Point")},
	}}
	vec := &Type{Kind: KClass, Name: "PointVector", Super: "java.util.Vector"}
	ideal := &Type{Kind: KInterface, Name: "JavaIdeal", Methods: []Method{{
		Name:   "fitter",
		Params: []Param{{Name: "pts", Type: NewNamed("PointVector")}},
		Result: NewNamed("Line"),
	}}}
	for _, d := range []struct {
		name string
		ty   *Type
	}{
		{"Point", point}, {"Line", line}, {"PointVector", vec}, {"JavaIdeal", ideal},
	} {
		if _, err := u.Add(d.name, d.ty); err != nil {
			t.Fatal(err)
		}
	}
	if err := u.Resolve(); err != nil {
		t.Fatal(err)
	}
	return u
}

func TestUniverseAddAndLookup(t *testing.T) {
	u := buildFitterUniverse(t)
	if d := u.Lookup("fitter"); d == nil || d.Lang != LangC {
		t.Fatalf("Lookup(fitter) = %+v", d)
	}
	if d := u.Lookup("nope"); d != nil {
		t.Errorf("Lookup(nope) = %+v, want nil", d)
	}
	names := u.Names()
	if len(names) != 2 || names[0] != "point" || names[1] != "fitter" {
		t.Errorf("Names() = %v", names)
	}
}

func TestUniverseRejectsDuplicatesAndNils(t *testing.T) {
	u := NewUniverse(LangC)
	if _, err := u.Add("x", NewPrim(PI32)); err != nil {
		t.Fatal(err)
	}
	if _, err := u.Add("x", NewPrim(PI32)); err == nil {
		t.Error("duplicate accepted")
	}
	if _, err := u.Add("", NewPrim(PI32)); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := u.Add("y", nil); err == nil {
		t.Error("nil type accepted")
	}
}

func TestResolveBindsTargets(t *testing.T) {
	u := buildFitterUniverse(t)
	fitter := u.Lookup("fitter").Type
	pts := fitter.Params[0].Type
	if pts.ElemType.Kind != KNamed || pts.ElemType.Target == nil {
		t.Fatal("pts element not resolved")
	}
	if pts.ElemType.Target.Name != "point" {
		t.Errorf("pts element resolves to %q", pts.ElemType.Target.Name)
	}
}

func TestResolveReportsMissing(t *testing.T) {
	u := NewUniverse(LangC)
	if _, err := u.Add("f", NewPointer(NewNamed("ghost"))); err != nil {
		t.Fatal(err)
	}
	err := u.Resolve()
	if err == nil || !strings.Contains(err.Error(), "ghost") {
		t.Errorf("Resolve error = %v, want mention of ghost", err)
	}
}

func TestWalkVisitsAllNodes(t *testing.T) {
	u := buildJavaUniverse(t)
	count := 0
	walk(u.Lookup("JavaIdeal").Type, make(map[*Type]bool), func(n *Type) { count++ })
	// interface + param named + result named = 3 nodes.
	if count != 3 {
		t.Errorf("walk visited %d nodes, want 3", count)
	}
}

func TestPathSelectRoot(t *testing.T) {
	u := buildFitterUniverse(t)
	p, err := ParsePath("fitter")
	if err != nil {
		t.Fatal(err)
	}
	sels, err := p.Select(u)
	if err != nil {
		t.Fatal(err)
	}
	if len(sels) != 1 || sels[0].Node.Kind != KFunc {
		t.Fatalf("selections = %+v", sels)
	}
}

func TestPathSelectParam(t *testing.T) {
	u := buildFitterUniverse(t)
	p, _ := ParsePath("fitter.start")
	sels, err := p.Select(u)
	if err != nil {
		t.Fatal(err)
	}
	if len(sels) != 1 || sels[0].Node.Kind != KPointer {
		t.Fatalf("selections = %+v", sels)
	}
	if sels[0].Where != "fitter.start" {
		t.Errorf("Where = %q", sels[0].Where)
	}
}

func TestPathSelectReturn(t *testing.T) {
	u := buildJavaUniverse(t)
	p, _ := ParsePath("JavaIdeal.fitter.return")
	sels, err := p.Select(u)
	if err != nil {
		t.Fatal(err)
	}
	if len(sels) != 1 || sels[0].Node.Name != "Line" {
		t.Fatalf("selections = %+v", sels)
	}
}

func TestPathSelectBareMethod(t *testing.T) {
	u := buildJavaUniverse(t)
	p, _ := ParsePath("JavaIdeal.fitter")
	sels, err := p.Select(u)
	if err != nil {
		t.Fatal(err)
	}
	if len(sels) != 1 || sels[0].Method == nil || sels[0].Method.Name != "fitter" {
		t.Fatalf("selections = %+v", sels)
	}
}

func TestPathSelectFieldWildcard(t *testing.T) {
	u := buildJavaUniverse(t)
	p, _ := ParsePath("Line.*")
	sels, err := p.Select(u)
	if err != nil {
		t.Fatal(err)
	}
	if len(sels) != 2 {
		t.Fatalf("Line.* matched %d nodes, want 2", len(sels))
	}
}

func TestPathSelectDeclWildcard(t *testing.T) {
	u := buildJavaUniverse(t)
	p, _ := ParsePath("*.start")
	sels, err := p.Select(u)
	if err != nil {
		t.Fatal(err)
	}
	if len(sels) != 1 || sels[0].Where != "Line.start" {
		t.Fatalf("selections = %+v", sels)
	}
}

func TestPathSelectElement(t *testing.T) {
	u := buildFitterUniverse(t)
	p, _ := ParsePath("fitter.pts.*")
	sels, err := p.Select(u)
	if err != nil {
		t.Fatal(err)
	}
	if len(sels) != 1 || sels[0].Node.Kind != KNamed || sels[0].Node.Name != "point" {
		t.Fatalf("selections = %+v", sels)
	}
}

func TestPathThroughNamed(t *testing.T) {
	// JavaIdeal.fitter.pts resolves through the PointVector class reference.
	u := buildJavaUniverse(t)
	p, _ := ParsePath("JavaIdeal.fitter.pts")
	sels, err := p.Select(u)
	if err != nil {
		t.Fatal(err)
	}
	if len(sels) != 1 || sels[0].Node.Name != "PointVector" {
		t.Fatalf("selections = %+v", sels)
	}
}

func TestPathLiteralMissIsError(t *testing.T) {
	u := buildFitterUniverse(t)
	p, _ := ParsePath("fitter.nosuch")
	if _, err := p.Select(u); err == nil {
		t.Error("literal path miss should error")
	}
}

func TestPathWildcardMissIsEmpty(t *testing.T) {
	u := buildFitterUniverse(t)
	p, _ := ParsePath("*.nosuch")
	sels, err := p.Select(u)
	if err != nil {
		t.Fatalf("wildcard miss should not error: %v", err)
	}
	if len(sels) != 0 {
		t.Errorf("got %d selections, want 0", len(sels))
	}
}

func TestParsePathErrors(t *testing.T) {
	for _, bad := range []string{"", "  ", "a..b", ".a"} {
		if _, err := ParsePath(bad); err == nil {
			t.Errorf("ParsePath(%q) accepted", bad)
		}
	}
}

func TestAnnMerge(t *testing.T) {
	tr := true
	base := Ann{NonNull: true, Mode: ModeIn}
	over := Ann{Mode: ModeOut, ByValue: &tr, FixedLen: 4}
	got := base.Merge(over)
	if !got.NonNull {
		t.Error("Merge dropped NonNull")
	}
	if got.Mode != ModeOut {
		t.Errorf("Mode = %s, want out", got.Mode)
	}
	if got.ByValue == nil || !*got.ByValue {
		t.Error("ByValue not merged")
	}
	if got.FixedLen != 4 {
		t.Errorf("FixedLen = %d", got.FixedLen)
	}
}

func TestAnnIsZero(t *testing.T) {
	if !(Ann{}).IsZero() {
		t.Error("zero Ann not IsZero")
	}
	if (Ann{NonNull: true}).IsZero() {
		t.Error("NonNull Ann reported zero")
	}
	f := false
	if (Ann{AsChar: &f}).IsZero() {
		t.Error("AsChar=false Ann reported zero")
	}
}

func TestTypeStrings(t *testing.T) {
	cases := []struct {
		ty   *Type
		want string
	}{
		{NewPrim(PF32), "float32"},
		{NewNamed("Point"), "Point"},
		{NewPointer(NewPrim(PI32)), "int32*"},
		{NewArray(NewPrim(PF32), 2), "float32[2]"},
		{NewArray(NewPrim(PF32), -1), "float32[]"},
		{NewSequence(NewPrim(PChar8)), "sequence<char8>"},
	}
	for _, c := range cases {
		if got := c.ty.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
	fn := &Type{Kind: KFunc, Params: []Param{{Name: "n", Type: NewPrim(PI32)}}, Result: NewPrim(PF32)}
	if got := fn.String(); got != "func(int32 n) float32" {
		t.Errorf("func String() = %q", got)
	}
}

func TestMethodSignature(t *testing.T) {
	m := Method{Name: "fitter", Params: []Param{{Name: "pts", Type: NewNamed("PointVector")}}, Result: NewNamed("Line")}
	if got := m.Signature(); got != "fitter(PointVector) Line" {
		t.Errorf("Signature = %q", got)
	}
}

func TestLangAndKindStrings(t *testing.T) {
	if LangC.String() != "c" || LangJava.String() != "java" || LangIDL.String() != "idl" {
		t.Error("lang names wrong")
	}
	if KStruct.String() != "struct" || KFunc.String() != "func" {
		t.Error("kind names wrong")
	}
	if ModeInOut.String() != "inout" || ModeUnset.String() != "unset" {
		t.Error("mode names wrong")
	}
}

// TestTextForm: each name of Lang, TKind and Prim reads back as its value
// and is the value's String; a value without a name has no text form, and
// an unknown name does not read.
func TestTextForm(t *testing.T) {
	type textual interface {
		MarshalText() ([]byte, error)
		String() string
	}
	check := func(v textual, read func([]byte) (textual, error)) {
		b, err := v.MarshalText()
		if err != nil || string(b) != v.String() {
			t.Errorf("%v: text %q, %v", v, b, err)
			return
		}
		if back, err := read(b); err != nil || back != v {
			t.Errorf("%q reads back as %v, %v", b, back, err)
		}
	}
	for l := LangC; l <= LangGo; l++ {
		check(l, func(b []byte) (textual, error) { var v Lang; err := v.UnmarshalText(b); return v, err })
	}
	for k := KPrim; k <= KFunc; k++ {
		check(k, func(b []byte) (textual, error) { var v TKind; err := v.UnmarshalText(b); return v, err })
	}
	for p := PVoid; p <= PChar16; p++ {
		check(p, func(b []byte) (textual, error) { var v Prim; err := v.UnmarshalText(b); return v, err })
	}
	if b, err := TKind(0).MarshalText(); err == nil {
		t.Errorf("tkind(0) has text %q", b)
	}
	var k TKind
	if err := k.UnmarshalText([]byte("tkind(0)")); err == nil || err.Error() != `unknown kind "tkind(0)"` {
		t.Errorf("reading tkind(0): %v", err)
	}
}

// TestResolveScoped holds IDL's rule: a reference binds in the innermost
// enclosing scope that declares it, then outward, and "::" names the
// global scope; an interface's Super binds the same way, and the first
// reference that binds to nothing is the error.
func TestResolveScoped(t *testing.T) {
	u := NewUniverse(LangIDL)
	for _, name := range []string{"P", "A::P", "A::B::Q"} {
		if _, err := u.Add(name, &Type{Kind: KStruct, Name: name}); err != nil {
			t.Fatal(err)
		}
	}
	inner := NewNamed("A::B" + ScopeMark + "P")
	global := NewNamed("::P")
	local := NewNamed("A::B" + ScopeMark + "Q")
	user := &Type{Kind: KInterface, Name: "A::B::I", Super: "A::B" + ScopeMark + "Q",
		Fields: []Field{{Name: "i", Type: inner}, {Name: "g", Type: global}, {Name: "l", Type: local}}}
	if _, err := u.Add("A::B::I", user); err != nil {
		t.Fatal(err)
	}
	if err := u.ResolveScoped(); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ got, want string }{
		{inner.Name, "A::P"}, {global.Name, "P"}, {local.Name, "A::B::Q"}, {user.Super, "A::B::Q"},
	} {
		if c.got != c.want {
			t.Errorf("bound to %q, want %q", c.got, c.want)
		}
	}
	if inner.Target != u.Lookup("A::P") {
		t.Errorf("A::P's reference targets %v", inner.Target)
	}

	for _, c := range []struct {
		ty   *Type
		want string
	}{
		{&Type{Kind: KStruct, Fields: []Field{{Name: "x", Type: NewNamed("M" + ScopeMark + "Nope")}}}, `unresolved name "Nope" in S`},
		{&Type{Kind: KInterface, Super: "M" + ScopeMark + "Nope"}, `unresolved base interface "Nope" of S`},
	} {
		u := NewUniverse(LangIDL)
		if _, err := u.Add("S", c.ty); err != nil {
			t.Fatal(err)
		}
		if err := u.ResolveScoped(); err == nil || err.Error() != c.want {
			t.Errorf("ResolveScoped = %v, want %q", err, c.want)
		}
	}
}

// TestResolveSharedNodes holds the walk to one visit per node with
// children: sixty structs, each holding the next twice, give 2^60 paths
// to the one reference at the bottom.
func TestResolveSharedNodes(t *testing.T) {
	ref := NewNamed("leaf")
	node := &Type{Kind: KStruct, Fields: []Field{{Name: "r", Type: ref}}}
	for i := 0; i < 60; i++ {
		node = &Type{Kind: KStruct, Fields: []Field{{Name: "a", Type: node}, {Name: "b", Type: node}}}
	}
	u := NewUniverse(LangC)
	for name, ty := range map[string]*Type{"top": node, "leaf": NewPrim(PI32)} {
		if _, err := u.Add(name, ty); err != nil {
			t.Fatal(err)
		}
	}
	if err := u.Resolve(); err != nil {
		t.Fatal(err)
	}
	if ref.Target != u.Lookup("leaf") {
		t.Errorf("the shared reference targets %v", ref.Target)
	}
}

// TestCloneIsDeep: a clone shares no node with its original above the
// names, so an annotation on any node of the copy leaves the original.
func TestCloneIsDeep(t *testing.T) {
	orig := &Type{
		Kind:    KClass,
		Fields:  []Field{{Name: "f", Type: NewSequence(NewPointer(NewPrim(PI32)))}},
		Methods: []Method{{Name: "m", Params: []Param{{Name: "p", Type: NewArray(NewPrim(PF32), 2)}}, Result: NewPointer(NewNamed("C"))}},
		Params:  []Param{{Name: "q", Type: NewPrim(PBool)}},
	}
	c := orig.Clone()
	for _, n := range []*Type{c, c.Fields[0].Type.ElemType.ElemType, c.Methods[0].Params[0].Type.ElemType, c.Methods[0].Result.ElemType, c.Params[0].Type} {
		n.Ann.NonNull = true
	}
	walk(orig, make(map[*Type]bool), func(n *Type) {
		if n.Ann.NonNull {
			t.Errorf("annotating the clone marked the original's %s", n)
		}
	})
	if c.String() != orig.String() || c.Methods[0].Signature() != orig.Methods[0].Signature() {
		t.Errorf("clone %s differs from %s", c, orig)
	}
}
