package lower

import (
	"strings"
	"testing"

	"repro/internal/annotate"
	"repro/internal/fingerprint"
	"repro/internal/idlparse"
	"repro/internal/javaparse"
	"repro/internal/mtype"
	"repro/internal/stype"
)

func TestRootClassByRefAnnotation(t *testing.T) {
	u := javaparse.MustParse(`class Svc { int call(int x) { return x; } int state; }`)
	if _, err := annotate.ApplyScript(u, "annotate Svc byref"); err != nil {
		t.Fatal(err)
	}
	ty, err := New(u).Decl("Svc")
	if err != nil {
		t.Fatal(err)
	}
	if ty.Kind() != mtype.KindPort {
		t.Errorf("byref root = %s, want port", ty.Kind())
	}
}

func TestRootClassByValueAnnotation(t *testing.T) {
	u := javaparse.MustParse(`class Data { int a; int call() { return a; } }`)
	if _, err := annotate.ApplyScript(u, "annotate Data byvalue"); err != nil {
		t.Fatal(err)
	}
	ty, err := New(u).Decl("Data")
	if err != nil {
		t.Fatal(err)
	}
	if ty.Kind() != mtype.KindRecord {
		t.Errorf("byvalue root = %s, want record", ty.Kind())
	}
}

func TestRootCollection(t *testing.T) {
	u := javaparse.MustParse(`
		class Item { int id; }
		class Items extends java.util.Vector;
	`)
	if _, err := annotate.ApplyScript(u, "annotate Items collection-of=Item element-nonnull"); err != nil {
		t.Fatal(err)
	}
	ty, err := New(u).Decl("Items")
	if err != nil {
		t.Fatal(err)
	}
	want := mtype.NewList(mtype.RecordOf(mtype.NewIntegerBits(32, true)))
	if fingerprint.Exact(ty) != fingerprint.Exact(want) {
		t.Errorf("collection root = %s", ty)
	}
}

func TestMethodlessClassRootIsPortWhenEmpty(t *testing.T) {
	u := javaparse.MustParse(`class Marker {}`)
	ty, err := New(u).Decl("Marker")
	if err != nil {
		t.Fatal(err)
	}
	// No fields, no methods: an object port accepting nothing.
	if ty.Kind() != mtype.KindPort || ty.Elem().Kind() != mtype.KindUnit {
		t.Errorf("empty class root = %s", ty)
	}
}

func TestRepertoireOverride(t *testing.T) {
	u := javaparse.MustParse(`class C { char ascii7; }`)
	if _, err := annotate.ApplyScript(u, "annotate C.ascii7 repertoire=ascii"); err != nil {
		t.Fatal(err)
	}
	ty, err := New(u).Decl("C")
	if err != nil {
		t.Fatal(err)
	}
	ch := ty.Fields()[0].Type
	if ch.Kind() != mtype.KindCharacter || ch.Repertoire() != mtype.RepASCII {
		t.Errorf("annotated char = %s", ch)
	}
}

func TestBadRepertoireRejected(t *testing.T) {
	u := javaparse.MustParse(`class C { char c; }`)
	u.Lookup("C").Type.Fields[0].Type.Ann.Repertoire = "klingon"
	if _, err := New(u).Decl("C"); err == nil {
		t.Error("bogus repertoire accepted")
	}
}

func TestBadRangeRejected(t *testing.T) {
	u := javaparse.MustParse(`class C { int v; }`)
	u.Lookup("C").Type.Fields[0].Type.Ann.Range = &stype.RangeAnn{Lo: "9", Hi: "1"}
	if _, err := New(u).Decl("C"); err == nil {
		t.Error("reversed range annotation accepted")
	}
}

func TestRangeBeyondInt64(t *testing.T) {
	// The §3.1 unsigned-long case: a range up to 2^64-1 must survive
	// lowering and comparison.
	u := javaparse.MustParse(`class C { long v; }`)
	if _, err := annotate.ApplyScript(u, "annotate C.v range=0..18446744073709551615"); err != nil {
		t.Fatal(err)
	}
	ty, err := New(u).Decl("C")
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := ty.Fields()[0].Type.IntegerRange()
	if lo.Sign() != 0 || hi.String() != "18446744073709551615" {
		t.Errorf("range = [%s..%s]", lo, hi)
	}
}

func TestInterfaceByValueRejected(t *testing.T) {
	u := javaparse.MustParse(`
		interface I { int f(); }
		class H { I ref; }
	`)
	if _, err := annotate.ApplyScript(u, "annotate H.ref byvalue nonnull"); err != nil {
		t.Fatal(err)
	}
	_, err := New(u).Decl("H")
	if err == nil || !strings.Contains(err.Error(), "by value") {
		t.Errorf("interface by value accepted: %v", err)
	}
}

func TestEmptyEnumRejected(t *testing.T) {
	u := idlparse.MustParse(`struct S { long x; };`)
	// Construct an invalid empty enum by hand.
	d := u.Lookup("S")
	d.Type.Fields[0].Type.Kind = stype.KEnum
	if _, err := New(u).Decl("S"); err == nil {
		t.Error("empty enum accepted")
	}
}

func TestAttributeLowering(t *testing.T) {
	u := idlparse.MustParse(`
		interface Acct { readonly attribute long balance; };
	`)
	ty, err := New(u).Decl("Acct")
	if err != nil {
		t.Fatal(err)
	}
	// One getter method: port(Record(reply-port)).
	if ty.Kind() != mtype.KindPort {
		t.Fatalf("Acct = %s", ty)
	}
	inv := ty.Elem()
	if inv.Kind() != mtype.KindRecord || len(inv.Fields()) != 1 {
		t.Errorf("getter invocation = %s", inv)
	}
}
