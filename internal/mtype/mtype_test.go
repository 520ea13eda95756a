package mtype

import (
	"math/big"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindInteger:   "integer",
		KindCharacter: "character",
		KindReal:      "real",
		KindUnit:      "unit",
		KindRecord:    "record",
		KindChoice:    "choice",
		KindRecursive: "recursive",
		KindPort:      "port",
		Kind(0):       "kind(0)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestNewIntegerBitsSigned(t *testing.T) {
	ty := NewIntegerBits(16, true)
	lo, hi := ty.IntegerRange()
	if lo.Int64() != -32768 || hi.Int64() != 32767 {
		t.Errorf("int16 range = [%s, %s], want [-32768, 32767]", lo, hi)
	}
}

func TestNewIntegerBitsUnsigned(t *testing.T) {
	ty := NewIntegerBits(64, false)
	lo, hi := ty.IntegerRange()
	if lo.Sign() != 0 {
		t.Errorf("uint64 lo = %s, want 0", lo)
	}
	want := new(big.Int).Lsh(big.NewInt(1), 64)
	want.Sub(want, big.NewInt(1))
	if hi.Cmp(want) != 0 {
		t.Errorf("uint64 hi = %s, want %s", hi, want)
	}
}

func TestNewIntegerCopiesBounds(t *testing.T) {
	lo, hi := big.NewInt(0), big.NewInt(10)
	ty := NewInteger(lo, hi)
	hi.SetInt64(99) // mutate the caller's copy
	_, gotHi := ty.IntegerRange()
	if gotHi.Int64() != 10 {
		t.Errorf("bounds aliased: hi = %s after caller mutation", gotHi)
	}
}

func TestNewIntegerPanicsOnReversedRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for reversed range")
		}
	}()
	NewInteger(big.NewInt(5), big.NewInt(1))
}

func TestBoolAndEnumConventions(t *testing.T) {
	lo, hi := NewBool().IntegerRange()
	if lo.Int64() != 0 || hi.Int64() != 1 {
		t.Errorf("bool = [%s..%s], want [0..1]", lo, hi)
	}
	lo, hi = NewEnum(5).IntegerRange()
	if lo.Int64() != 0 || hi.Int64() != 4 {
		t.Errorf("enum(5) = [%s..%s], want [0..4]", lo, hi)
	}
}

func TestRepertoireChain(t *testing.T) {
	chain := []Repertoire{RepASCII, RepLatin1, RepUCS2, RepUnicode}
	for i, small := range chain {
		for j, large := range chain {
			got := large.Includes(small)
			want := j >= i
			if got != want {
				t.Errorf("%s.Includes(%s) = %v, want %v", large, small, got, want)
			}
		}
	}
}

func TestRealParams(t *testing.T) {
	p, e := NewFloat32().RealParams()
	if p != 24 || e != 8 {
		t.Errorf("float32 = (%d,%d), want (24,8)", p, e)
	}
	p, e = NewFloat64().RealParams()
	if p != 53 || e != 11 {
		t.Errorf("float64 = (%d,%d), want (53,11)", p, e)
	}
}

func TestRecordFieldsPreserveOrderAndNames(t *testing.T) {
	r := NewRecord(
		Field{Name: "x", Type: NewFloat32()},
		Field{Name: "y", Type: NewFloat32()},
	)
	fields := r.Fields()
	if len(fields) != 2 || fields[0].Name != "x" || fields[1].Name != "y" {
		t.Errorf("fields = %+v", fields)
	}
}

func TestChoiceAlts(t *testing.T) {
	c := NewOptional(NewFloat32())
	alts := c.Alts()
	if len(alts) != 2 {
		t.Fatalf("optional has %d alts, want 2", len(alts))
	}
	if alts[0].Type.Kind() != KindUnit {
		t.Errorf("first alt kind = %s, want unit", alts[0].Type.Kind())
	}
	if alts[1].Type.Kind() != KindReal {
		t.Errorf("second alt kind = %s, want real", alts[1].Type.Kind())
	}
}

func TestListEncodingShape(t *testing.T) {
	// §3.2 / Figure 8: a list of τ is μL.Choice(Unit, Record(τ, L)).
	l := NewList(NewFloat32())
	if l.Kind() != KindRecursive {
		t.Fatalf("list root = %s, want recursive", l.Kind())
	}
	body := l.Body()
	if body.Kind() != KindChoice {
		t.Fatalf("list body = %s, want choice", body.Kind())
	}
	alts := body.Alts()
	if alts[0].Type.Kind() != KindUnit {
		t.Errorf("nil alternative = %s, want unit", alts[0].Type.Kind())
	}
	cons := alts[1].Type
	if cons.Kind() != KindRecord {
		t.Fatalf("cons alternative = %s, want record", cons.Kind())
	}
	if cons.Fields()[1].Type != l {
		t.Error("cons tail does not point back at the μ node")
	}
}

func TestFunctionEncodingShape(t *testing.T) {
	// §3.3: F(int) -> float has Mtype port(Record(Integer, port(Real))).
	fn := NewFunction(
		[]Field{{Name: "n", Type: NewIntegerBits(32, true)}},
		[]Field{{Name: "result", Type: NewFloat32()}},
	)
	if fn.Kind() != KindPort {
		t.Fatalf("function = %s, want port", fn.Kind())
	}
	req := fn.Elem()
	if req.Kind() != KindRecord {
		t.Fatalf("request = %s, want record", req.Kind())
	}
	fields := req.Fields()
	if len(fields) != 2 {
		t.Fatalf("request has %d fields, want 2", len(fields))
	}
	if fields[0].Type.Kind() != KindInteger {
		t.Errorf("input = %s, want integer", fields[0].Type.Kind())
	}
	reply := fields[1].Type
	if reply.Kind() != KindPort {
		t.Fatalf("reply = %s, want port", reply.Kind())
	}
	out := reply.Elem()
	if out.Kind() != KindRecord || len(out.Fields()) != 1 || out.Fields()[0].Type.Kind() != KindReal {
		t.Errorf("reply element = %s", out)
	}
}

func TestValidateAcceptsListAndFunction(t *testing.T) {
	for _, ty := range []*Type{
		NewList(NewFloat32()),
		NewFunction(nil, nil),
		Unit(),
		NewRecord(),
	} {
		if err := Validate(ty); err != nil {
			t.Errorf("Validate(%s) = %v, want nil", ty, err)
		}
	}
}

func TestValidateRejectsUnboundRecursive(t *testing.T) {
	rec := NewRecursive()
	if err := Validate(rec); err == nil {
		t.Error("Validate accepted unbound recursive node")
	}
}

func TestValidateRejectsNonContractiveCycle(t *testing.T) {
	// μL.L — a recursive node whose body is itself, with no structural node
	// in the cycle.
	rec := NewRecursive()
	rec.SetBody(rec)
	if err := Validate(rec); err == nil {
		t.Error("Validate accepted non-contractive μL.L")
	}
}

func TestValidateRejectsCycleWithoutRecursiveNode(t *testing.T) {
	// Build a record whose field points back at the record without a μ node
	// in between. This cannot be built through constructors alone, so we
	// mutate the shared fields slice — exactly the corruption Validate
	// exists to catch.
	inner := NewRecord(Field{Name: "tmp", Type: Unit()})
	outer := NewRecord(Field{Name: "loop", Type: inner}, Field{Name: "pad", Type: Unit()})
	inner.Fields()[0].Type = outer
	if err := Validate(outer); err == nil {
		t.Error("Validate accepted cycle without recursive node")
	}
	if err := Validate(outer); err == nil || !strings.Contains(err.Error(), "recursive") {
		t.Errorf("error should mention recursive node requirement, got %v", err)
	}
}

// TestValidateErrors pins the exact message of every way Validate refuses
// a graph, each built where the constructors cannot reach it.
func TestValidateErrors(t *testing.T) {
	nilChild := NewRecord(Field{Name: "x", Type: Unit()})
	nilChild.Fields()[0].Type = nil
	unbound := NewRecord(Field{Name: "next", Type: NewRecursive().SetTag("Node")})
	inner := NewRecord(Field{Name: "tmp", Type: Unit()})
	noMu := NewRecord(Field{Name: "loop", Type: inner})
	inner.Fields()[0].Type = noMu
	mu, nu := NewRecursive(), NewRecursive()
	mu.SetBody(nu)
	nu.SetBody(mu)
	badKind := NewPort(Unit())
	badKind.elem = &Type{kind: KindPort + 1}
	for _, tc := range []struct {
		name string
		t    *Type
		want string
	}{
		{"nil root", nil, "mtype: nil type"},
		{"nil child", nilChild, "mtype: nil child reached"},
		{"unbound μ", unbound, `mtype: recursive node "Node" has no body`},
		{"cycle without μ", noMu, "mtype: cycle without a recursive node (through record)"},
		{"non-contractive cycle", NewList(mu), "mtype: non-contractive cycle (no structural node)"},
		{"invalid kind", badKind, "mtype: invalid kind 9"},
	} {
		if err := Validate(tc.t); err == nil || err.Error() != tc.want {
			t.Errorf("%s: Validate = %v, want %q", tc.name, err, tc.want)
		}
	}
}

// TestTypeSize: a node fills the 128-byte size class exactly. A field
// appended rather than fitted into padding moves every node, and every
// graph a broker keeps resident, into the 144-byte class.
func TestTypeSize(t *testing.T) {
	if got := unsafe.Sizeof(Type{}); got != 128 {
		t.Errorf("unsafe.Sizeof(Type{}) = %d, want 128", got)
	}
}

// TestValidateConcurrent: goroutines validating one shared graph, as
// wire's dynamic decode can, all succeed and record one count; run it
// under -race.
func TestValidateConcurrent(t *testing.T) {
	state := int64(42)
	rnd := func(n int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int(uint64(state)>>33) % n
	}
	shared := NewList(RecordOf(GenType(rnd, 5), NewList(GenType(rnd, 4))))
	want := Size(shared)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if err := Validate(shared); err != nil {
				t.Error(err)
			}
			if got := shared.ValidatedSize(); got != want {
				t.Errorf("ValidatedSize = %d, want %d", got, want)
			}
		}()
	}
	close(start)
	wg.Wait()
}

func TestValidateNil(t *testing.T) {
	if err := Validate(nil); err == nil {
		t.Error("Validate(nil) = nil, want error")
	}
}

func TestStringRendersFitterMtype(t *testing.T) {
	// §3.4: both fitter declarations lower to
	// port(Record(L, port(Record(RR, RR)))) where L is a list of RR.
	point := RecordOf(NewFloat32(), NewFloat32())
	line := RecordOf(RecordOf(NewFloat32(), NewFloat32()), RecordOf(NewFloat32(), NewFloat32()))
	fitter := NewPort(NewRecord(
		Field{Name: "pts", Type: NewList(point)},
		Field{Name: "reply", Type: NewPort(line)},
	))
	s := fitter.String()
	for _, want := range []string{"port(record(μL1.choice(unit, record(record(real(24,8), real(24,8)), L1))", "real(24,8)"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q, missing %q", s, want)
		}
	}
}

func TestStringSharedListIsStable(t *testing.T) {
	l := NewList(NewFloat32())
	pair := RecordOf(l, l)
	s := pair.String()
	if !strings.Contains(s, "μL1") {
		t.Errorf("String() = %q, want μ binder", s)
	}
	if got := pair.String(); got != s {
		t.Errorf("String() unstable: %q then %q", s, got)
	}
}

func TestChildren(t *testing.T) {
	a, b := NewFloat32(), NewIntegerBits(8, false)
	rec := RecordOf(a, b)
	kids := rec.Children()
	if len(kids) != 2 || kids[0] != a || kids[1] != b {
		t.Errorf("record children wrong: %v", kids)
	}
	p := NewPort(a)
	if kids := p.Children(); len(kids) != 1 || kids[0] != a {
		t.Errorf("port children wrong: %v", kids)
	}
	if kids := a.Children(); kids != nil {
		t.Errorf("primitive children = %v, want nil", kids)
	}
	unbound := NewRecursive()
	if kids := unbound.Children(); kids != nil {
		t.Errorf("unbound recursive children = %v, want nil", kids)
	}
}

func TestSizeAndNodes(t *testing.T) {
	l := NewList(NewFloat32())
	// μ node, choice, unit, record, real = 5 distinct nodes.
	if got := Size(l); got != 5 {
		t.Errorf("Size(list) = %d, want 5", got)
	}
	nodes := Nodes(l)
	if nodes[0] != l {
		t.Error("Nodes should start at the root")
	}
}

func TestTagRoundTrip(t *testing.T) {
	ty := Unit().SetTag("void")
	if ty.Tag() != "void" {
		t.Errorf("Tag = %q, want void", ty.Tag())
	}
}

func TestMustKindPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic calling Fields on a port")
		}
	}()
	NewPort(Unit()).Fields()
}

// GenType builds a random acyclic Mtype of bounded depth for property
// tests, here and in digest_test.go.
func GenType(rnd func(int) int, depth int) *Type {
	if depth <= 0 {
		switch rnd(5) {
		case 0:
			return NewIntegerBits(8*(1+rnd(4)), rnd(2) == 0)
		case 1:
			return NewCharacter(Repertoire(1 + rnd(4)))
		case 2:
			return NewFloat32()
		case 3:
			return NewFloat64()
		default:
			return Unit()
		}
	}
	switch rnd(4) {
	case 0:
		n := rnd(4)
		kids := make([]*Type, n)
		for i := range kids {
			kids[i] = GenType(rnd, depth-1)
		}
		return RecordOf(kids...)
	case 1:
		n := 1 + rnd(3)
		kids := make([]*Type, n)
		for i := range kids {
			kids[i] = GenType(rnd, depth-1)
		}
		return ChoiceOf(kids...)
	case 2:
		return NewPort(GenType(rnd, depth-1))
	default:
		return NewList(GenType(rnd, depth-1))
	}
}

func TestPropertyRandomTypesValidate(t *testing.T) {
	f := func(seed int64) bool {
		state := seed
		rnd := func(n int) int {
			state = state*6364136223846793005 + 1442695040888963407
			v := int((state >> 33) % int64(n))
			if v < 0 {
				v += n
			}
			return v
		}
		ty := GenType(rnd, 4)
		return Validate(ty) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPropertyStringTerminates(t *testing.T) {
	// String on cyclic graphs must terminate and mention a binder.
	f := func(seed int64) bool {
		state := seed
		rnd := func(n int) int {
			state = state*6364136223846793005 + 1442695040888963407
			v := int((state >> 33) % int64(n))
			if v < 0 {
				v += n
			}
			return v
		}
		ty := NewList(GenType(rnd, 3))
		s := ty.String()
		return strings.Contains(s, "μ")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
