package bind

import (
	"testing"

	"repro/internal/annotate"
	"repro/internal/cmem"
	"repro/internal/cparse"
	"repro/internal/javaparse"
	"repro/internal/jheap"
	"repro/internal/lower"
	"repro/internal/stype"
	"repro/internal/value"
)

// --- C binding ---

func cUniverse(t *testing.T, src, script string) *stype.Universe {
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
	return u
}

func TestCStructRoundTrip(t *testing.T) {
	u := cUniverse(t, `struct Point { float x; float y; };`, "")
	c := NewC(u, cmem.ILP32)
	mem := cmem.NewArena()
	pt := u.Lookup("Point").Type
	lay, err := c.Layouts().Of(pt)
	if err != nil {
		t.Fatal(err)
	}
	at := mem.Alloc(lay.Size, lay.Align)

	in := value.NewRecord(value.Real{V: 1.5}, value.Real{V: -2.5})
	if err := c.Write(pt, mem, at, in); err != nil {
		t.Fatal(err)
	}
	got, err := c.Read(pt, mem, at, -1)
	if err != nil {
		t.Fatal(err)
	}
	if !value.Equal(got, in) {
		t.Errorf("round trip = %s, want %s", got, in)
	}
	// The value must inhabit the lowered Mtype.
	mt, err := lower.New(u).Decl("Point")
	if err != nil {
		t.Fatal(err)
	}
	if err := value.Check(got, mt); err != nil {
		t.Error(err)
	}
}

func TestCPrimitiveEncodings(t *testing.T) {
	u := cUniverse(t, `struct S { char c; int i; unsigned int u; double d; _Bool b; };`, "")
	c := NewC(u, cmem.ILP32)
	mem := cmem.NewArena()
	st := u.Lookup("S").Type
	lay, _ := c.Layouts().Of(st)
	at := mem.Alloc(lay.Size, lay.Align)
	in := value.NewRecord(
		value.Char{R: 'A'},
		value.NewInt(-123456),
		value.NewInt(3000000000),
		value.Real{V: 2.5},
		value.NewInt(1),
	)
	if err := c.Write(st, mem, at, in); err != nil {
		t.Fatal(err)
	}
	got, err := c.Read(st, mem, at, -1)
	if err != nil {
		t.Fatal(err)
	}
	if !value.Equal(got, in) {
		t.Errorf("round trip = %s, want %s", got, in)
	}
}

func TestCPointerNullable(t *testing.T) {
	u := cUniverse(t, `struct H { int *p; };`, "")
	c := NewC(u, cmem.ILP32)
	mem := cmem.NewArena()
	h := u.Lookup("H").Type
	lay, _ := c.Layouts().Of(h)

	at := mem.Alloc(lay.Size, lay.Align)
	if err := c.Write(h, mem, at, value.NewRecord(value.Null())); err != nil {
		t.Fatal(err)
	}
	got, err := c.Read(h, mem, at, -1)
	if err != nil {
		t.Fatal(err)
	}
	if !value.Equal(got, value.NewRecord(value.Null())) {
		t.Errorf("null round trip = %s", got)
	}

	at2 := mem.Alloc(lay.Size, lay.Align)
	in := value.NewRecord(value.Some(value.NewInt(42)))
	if err := c.Write(h, mem, at2, in); err != nil {
		t.Fatal(err)
	}
	got, err = c.Read(h, mem, at2, -1)
	if err != nil {
		t.Fatal(err)
	}
	if !value.Equal(got, in) {
		t.Errorf("pointer round trip = %s, want %s", got, in)
	}
}

func TestCFixedArrayRoundTrip(t *testing.T) {
	u := cUniverse(t, `typedef float point[2]; struct Seg { point a; point b; };`, "")
	c := NewC(u, cmem.ILP32)
	mem := cmem.NewArena()
	seg := u.Lookup("Seg").Type
	lay, _ := c.Layouts().Of(seg)
	at := mem.Alloc(lay.Size, lay.Align)
	in := value.NewRecord(
		value.NewRecord(value.Real{V: 1}, value.Real{V: 2}),
		value.NewRecord(value.Real{V: 3}, value.Real{V: 4}),
	)
	if err := c.Write(seg, mem, at, in); err != nil {
		t.Fatal(err)
	}
	got, err := c.Read(seg, mem, at, -1)
	if err != nil {
		t.Fatal(err)
	}
	if !value.Equal(got, in) {
		t.Errorf("round trip = %s, want %s", got, in)
	}
}

func TestCUnionRejected(t *testing.T) {
	u := cUniverse(t, `union U { int i; float f; }; struct S { union U u; };`, "")
	c := NewC(u, cmem.ILP32)
	mem := cmem.NewArena()
	st := u.Lookup("S").Type
	lay, _ := c.Layouts().Of(st)
	at := mem.Alloc(lay.Size, lay.Align)
	if _, err := c.Read(st, mem, at, -1); err == nil {
		t.Error("union read accepted (no discriminant exists in C memory)")
	}
}

func TestCNonNullPointerRejectsNull(t *testing.T) {
	u := cUniverse(t, `struct H { int *p; };`, "annotate H.p nonnull")
	c := NewC(u, cmem.ILP32)
	mem := cmem.NewArena()
	h := u.Lookup("H").Type
	lay, _ := c.Layouts().Of(h)
	at := mem.Alloc(lay.Size, lay.Align) // zeroed → NULL pointer
	if _, err := c.Read(h, mem, at, -1); err == nil {
		t.Error("NULL accepted in nonnull pointer")
	}
}

// fitterSrc is the Figure 2 declaration plus the §3.4 annotations.
const fitterSrc = `
typedef float point[2];
void fitter(point pts[], int count, point *start, point *end);
`

const fitterScript = `
annotate fitter.start out nonnull
annotate fitter.end out nonnull
annotate fitter.pts length-from=count
`

// cFitterImpl is the "compiled C" implementation: it reads raw memory
// through the arena exactly as the real fitter would, computing the
// bounding-box diagonal as its fitted line.
func cFitterImpl(mem *cmem.Arena, args []uint64) (uint64, error) {
	pts := cmem.Addr(args[0])
	count := int(int32(args[1]))
	start := cmem.Addr(args[2])
	end := cmem.Addr(args[3])
	minX, minY := float32(0), float32(0)
	maxX, maxY := float32(0), float32(0)
	for i := 0; i < count; i++ {
		x, err := mem.ReadF32(pts + cmem.Addr(8*i))
		if err != nil {
			return 0, err
		}
		y, err := mem.ReadF32(pts + cmem.Addr(8*i+4))
		if err != nil {
			return 0, err
		}
		if i == 0 || x < minX {
			minX = x
		}
		if i == 0 || y < minY {
			minY = y
		}
		if i == 0 || x > maxX {
			maxX = x
		}
		if i == 0 || y > maxY {
			maxY = y
		}
	}
	if err := mem.WriteF32(start, minX); err != nil {
		return 0, err
	}
	if err := mem.WriteF32(start+4, minY); err != nil {
		return 0, err
	}
	if err := mem.WriteF32(end, maxX); err != nil {
		return 0, err
	}
	if err := mem.WriteF32(end+4, maxY); err != nil {
		return 0, err
	}
	return 0, nil
}

func TestCCallFitter(t *testing.T) {
	u := cUniverse(t, fitterSrc, fitterScript)
	c := NewC(u, cmem.ILP32)
	mem := cmem.NewArena()

	pts := value.FromSlice([]value.Value{
		value.NewRecord(value.Real{V: 1}, value.Real{V: 5}),
		value.NewRecord(value.Real{V: 3}, value.Real{V: 2}),
		value.NewRecord(value.Real{V: 2}, value.Real{V: 7}),
	})
	outs, err := c.Call(u.Lookup("fitter"), cFitterImpl, mem, value.NewRecord(pts))
	if err != nil {
		t.Fatal(err)
	}
	rec, ok := outs.(value.Record)
	if !ok || len(rec.Fields) != 2 {
		t.Fatalf("outputs = %s", outs)
	}
	wantStart := value.NewRecord(value.Real{V: 1}, value.Real{V: 2})
	wantEnd := value.NewRecord(value.Real{V: 3}, value.Real{V: 7})
	if !value.Equal(rec.Fields[0], wantStart) {
		t.Errorf("start = %s, want %s", rec.Fields[0], wantStart)
	}
	if !value.Equal(rec.Fields[1], wantEnd) {
		t.Errorf("end = %s, want %s", rec.Fields[1], wantEnd)
	}
}

func TestCCallEmptyArray(t *testing.T) {
	u := cUniverse(t, fitterSrc, fitterScript)
	c := NewC(u, cmem.ILP32)
	mem := cmem.NewArena()
	outs, err := c.Call(u.Lookup("fitter"), cFitterImpl, mem, value.NewRecord(value.FromSlice(nil)))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := outs.(value.Record); !ok {
		t.Fatalf("outputs = %T", outs)
	}
}

func TestCCallScalarReturn(t *testing.T) {
	u := cUniverse(t, `float scale(float x, int k);`, "")
	c := NewC(u, cmem.ILP32)
	impl := func(mem *cmem.Arena, args []uint64) (uint64, error) {
		x := ArgF32(args[0])
		k := int32(args[1])
		return RetF32(x * float32(k)), nil
	}
	outs, err := c.Call(u.Lookup("scale"), impl, cmem.NewArena(),
		value.NewRecord(value.Real{V: 2.5}, value.NewInt(4)))
	if err != nil {
		t.Fatal(err)
	}
	rec := outs.(value.Record)
	if len(rec.Fields) != 1 || !value.Equal(rec.Fields[0], value.Real{V: 10}) {
		t.Errorf("outputs = %s", outs)
	}
}

func TestCCallInOut(t *testing.T) {
	u := cUniverse(t, `void bump(int *v);`, "annotate bump.v inout nonnull")
	c := NewC(u, cmem.ILP32)
	impl := func(mem *cmem.Arena, args []uint64) (uint64, error) {
		at := cmem.Addr(args[0])
		n, err := mem.ReadI(at, 4)
		if err != nil {
			return 0, err
		}
		return 0, mem.WriteU(at, 4, uint64(n+1))
	}
	outs, err := c.Call(u.Lookup("bump"), impl, cmem.NewArena(),
		value.NewRecord(value.NewInt(41)))
	if err != nil {
		t.Fatal(err)
	}
	rec := outs.(value.Record)
	if len(rec.Fields) != 1 || !value.Equal(rec.Fields[0], value.NewInt(42)) {
		t.Errorf("outputs = %s", outs)
	}
}

func TestCCallInputArityChecked(t *testing.T) {
	u := cUniverse(t, `float scale(float x, int k);`, "")
	c := NewC(u, cmem.ILP32)
	impl := func(mem *cmem.Arena, args []uint64) (uint64, error) { return 0, nil }
	if _, err := c.Call(u.Lookup("scale"), impl, cmem.NewArena(),
		value.NewRecord(value.Real{V: 1})); err == nil {
		t.Error("short input record accepted")
	}
	if _, err := c.Call(u.Lookup("scale"), impl, cmem.NewArena(),
		value.NewRecord(value.Real{V: 1}, value.NewInt(2), value.NewInt(3))); err == nil {
		t.Error("long input record accepted")
	}
}

// --- Java binding ---

const figure1Java = `
public class Point { private float x; private float y; }
public class Line { private Point start; private Point end; }
public class PointVector extends java.util.Vector;
`

const figure1Script = `
annotate Line.start nonnull noalias
annotate Line.end nonnull noalias
annotate PointVector collection-of=Point element-nonnull
`

func jUniverse(t *testing.T, src, script string) *stype.Universe {
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
	return u
}

func TestJPointReadWrite(t *testing.T) {
	u := jUniverse(t, figure1Java, figure1Script)
	j := NewJ(u)
	h := jheap.NewHeap()

	// Build a Point in the heap by hand, read it as a value.
	p := h.New("Point", 2)
	_ = h.SetField(p, 0, jheap.FloatSlot(1.5))
	_ = h.SetField(p, 1, jheap.FloatSlot(2.5))

	use := stype.NewNamed("Point")
	use.Ann.NonNull = true
	got, err := j.Read(use, h, jheap.RefSlot(p))
	if err != nil {
		t.Fatal(err)
	}
	want := value.NewRecord(value.Real{V: 1.5}, value.Real{V: 2.5})
	if !value.Equal(got, want) {
		t.Errorf("read = %s, want %s", got, want)
	}

	// Write it back as a fresh object.
	slot, err := j.Write(use, h, want)
	if err != nil {
		t.Fatal(err)
	}
	back, err := j.Read(use, h, slot)
	if err != nil {
		t.Fatal(err)
	}
	if !value.Equal(back, want) {
		t.Errorf("write+read = %s", back)
	}
}

func TestJLineNested(t *testing.T) {
	u := jUniverse(t, figure1Java, figure1Script)
	j := NewJ(u)
	h := jheap.NewHeap()

	use := stype.NewNamed("Line")
	use.Ann.NonNull = true
	use.Ann.NoAlias = true
	in := value.NewRecord(
		value.NewRecord(value.Real{V: 1}, value.Real{V: 2}),
		value.NewRecord(value.Real{V: 3}, value.Real{V: 4}),
	)
	slot, err := j.Write(use, h, in)
	if err != nil {
		t.Fatal(err)
	}
	got, err := j.Read(use, h, slot)
	if err != nil {
		t.Fatal(err)
	}
	if !value.Equal(got, in) {
		t.Errorf("line round trip = %s, want %s", got, in)
	}
	// Check against the lowered Mtype of a nonnull+noalias Line use.
	mt, err := lower.New(u).Decl("Line")
	if err != nil {
		t.Fatal(err)
	}
	if err := value.Check(got, mt); err != nil {
		t.Error(err)
	}
}

func TestJVectorCollection(t *testing.T) {
	u := jUniverse(t, figure1Java, figure1Script)
	j := NewJ(u)
	h := jheap.NewHeap()

	v := h.NewVector("PointVector")
	for i := 0; i < 3; i++ {
		p := h.New("Point", 2)
		_ = h.SetField(p, 0, jheap.FloatSlot(float64(i)))
		_ = h.SetField(p, 1, jheap.FloatSlot(float64(i*10)))
		_ = h.VectorAppend(v, p)
	}
	use := stype.NewNamed("PointVector")
	use.Ann.NonNull = true
	got, err := j.Read(use, h, jheap.RefSlot(v))
	if err != nil {
		t.Fatal(err)
	}
	elems, err := value.ToSlice(got)
	if err != nil {
		t.Fatal(err)
	}
	if len(elems) != 3 {
		t.Fatalf("got %d elements", len(elems))
	}
	if !value.Equal(elems[1], value.NewRecord(value.Real{V: 1}, value.Real{V: 10})) {
		t.Errorf("element 1 = %s", elems[1])
	}

	// Round trip through Write.
	slot, err := j.Write(use, h, got)
	if err != nil {
		t.Fatal(err)
	}
	back, err := j.Read(use, h, slot)
	if err != nil {
		t.Fatal(err)
	}
	if !value.Equal(back, got) {
		t.Errorf("vector round trip = %s", back)
	}
}

func TestJNullability(t *testing.T) {
	u := jUniverse(t, figure1Java, "")
	j := NewJ(u)
	h := jheap.NewHeap()

	use := stype.NewNamed("Point")
	tr := true
	use.Ann.ByValue = &tr
	got, err := j.Read(use, h, jheap.RefSlot(jheap.NullRef))
	if err != nil {
		t.Fatal(err)
	}
	if !value.Equal(got, value.Null()) {
		t.Errorf("null read = %s", got)
	}
	slot, err := j.Write(use, h, value.Null())
	if err != nil {
		t.Fatal(err)
	}
	if slot.R != jheap.NullRef {
		t.Errorf("null write = %+v", slot)
	}

	nn := stype.NewNamed("Point")
	nn.Ann.NonNull = true
	if _, err := j.Read(nn, h, jheap.RefSlot(jheap.NullRef)); err == nil {
		t.Error("null accepted by nonnull reference")
	}
}

func TestJObjectPort(t *testing.T) {
	u := jUniverse(t, `
		class Service { int call(int x) { return x; } }
		class Holder { Service s; }
	`, "annotate Holder.s byref")
	j := NewJ(u)
	h := jheap.NewHeap()
	svc := h.New("Service", 0)
	holder := u.Lookup("Holder").Type
	got, err := j.Read(holder.Fields[0].Type, h, jheap.RefSlot(svc))
	if err != nil {
		t.Fatal(err)
	}
	cv, ok := got.(value.Choice)
	if !ok || cv.Alt != 1 {
		t.Fatalf("got %s", got)
	}
	port, ok := cv.V.(value.Port)
	if !ok {
		t.Fatalf("payload = %T", cv.V)
	}
	r, err := ParsePortRef(port.Ref)
	if err != nil || r != svc {
		t.Errorf("port ref = %q → %d, %v", port.Ref, r, err)
	}
}

func TestJPrimArrays(t *testing.T) {
	u := jUniverse(t, `class A { float[] xs; }`, "")
	j := NewJ(u)
	h := jheap.NewHeap()
	xs := u.Lookup("A").Type.Fields[0].Type

	in := value.FromSlice([]value.Value{value.Real{V: 1}, value.Real{V: 2}})
	slot, err := j.Write(xs, h, in)
	if err != nil {
		t.Fatal(err)
	}
	got, err := j.Read(xs, h, slot)
	if err != nil {
		t.Fatal(err)
	}
	if !value.Equal(got, in) {
		t.Errorf("array round trip = %s", got)
	}
	if _, err := j.Read(xs, h, jheap.RefSlot(jheap.NullRef)); err == nil {
		t.Error("null array accepted")
	}
}

func TestJStrings(t *testing.T) {
	u := jUniverse(t, `class A { String name; }`, "")
	j := NewJ(u)
	h := jheap.NewHeap()
	name := u.Lookup("A").Type.Fields[0].Type
	name.Ann.NonNull = true

	in := value.FromSlice([]value.Value{value.Char{R: 'h'}, value.Char{R: 'i'}})
	slot, err := j.Write(name, h, in)
	if err != nil {
		t.Fatal(err)
	}
	got, err := j.Read(name, h, slot)
	if err != nil {
		t.Fatal(err)
	}
	if !value.Equal(got, in) {
		t.Errorf("string round trip = %s", got)
	}
}

func TestPortRefRoundTrip(t *testing.T) {
	r := jheap.Ref(17)
	got, err := ParsePortRef(PortRef(r))
	if err != nil || got != r {
		t.Errorf("round trip = %d, %v", got, err)
	}
	if _, err := ParsePortRef("cobj:1"); err == nil {
		t.Error("foreign ref accepted")
	}
	if _, err := ParsePortRef("jobj:xyz"); err == nil {
		t.Error("malformed ref accepted")
	}
}
