package cmem

import (
	"testing"

	"repro/internal/cparse"
)

func TestAllocAlignmentAndZeroing(t *testing.T) {
	a := NewArena()
	p1 := a.Alloc(3, 1)
	p2 := a.Alloc(4, 4)
	if p1 == Null || p2 == Null {
		t.Fatal("allocations returned NULL")
	}
	if int(p2)%4 != 0 {
		t.Errorf("p2 = %d not 4-aligned", p2)
	}
	u, err := a.ReadU(p2, 4)
	if err != nil || u != 0 {
		t.Errorf("fresh memory = %d, %v", u, err)
	}
}

// TestResetThenAllocIsZero: a reset arena keeps its buffer, so the bytes
// past its length are what the last user wrote; Alloc must still hand out
// zeroed memory, and the reserved word must read zero again.
func TestResetThenAllocIsZero(t *testing.T) {
	a := NewArena()
	a.Grow(256)
	at := a.Alloc(200, 8)
	for i := range a.buf {
		a.buf[i] = 0xA5 // the reserved word too
	}
	a.Reset()
	if a.Size() != 8 {
		t.Fatalf("reset arena has size %d, want 8", a.Size())
	}
	for i, b := range a.buf {
		if b != 0 {
			t.Fatalf("reserved byte %d reads %#x after Reset", i, b)
		}
	}
	if again := a.Alloc(200, 8); again != at {
		t.Fatalf("the same allocation after Reset is at %d, was at %d", again, at)
	}
	w, err := a.Window(at, 200)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range w {
		if b != 0 {
			t.Fatalf("byte %d of a fresh allocation reads %#x after Reset", i, b)
		}
	}
	if cap(a.buf) < 256 {
		t.Errorf("Reset dropped the buffer: cap %d", cap(a.buf))
	}
}

func TestAllocZeroSizeUnique(t *testing.T) {
	a := NewArena()
	p1 := a.Alloc(0, 1)
	p2 := a.Alloc(0, 1)
	if p1 == p2 {
		t.Error("zero-size allocations alias")
	}
}

func TestScalarRoundTrips(t *testing.T) {
	a := NewArena()
	for _, size := range []int{1, 2, 4, 8} {
		at := a.Alloc(size, size)
		v := uint64(0xF1E2D3C4B5A69788) >> (8 * (8 - size))
		if err := a.WriteU(at, size, v); err != nil {
			t.Fatal(err)
		}
		got, err := a.ReadU(at, size)
		if err != nil || got != v {
			t.Errorf("size %d: got %x, want %x (%v)", size, got, v, err)
		}
	}
}

func TestSignExtension(t *testing.T) {
	a := NewArena()
	at := a.Alloc(1, 1)
	if err := a.WriteU(at, 1, 0xFF); err != nil {
		t.Fatal(err)
	}
	n, err := a.ReadI(at, 1)
	if err != nil || n != -1 {
		t.Errorf("ReadI = %d, %v, want -1", n, err)
	}
}

func TestFloatRoundTrips(t *testing.T) {
	a := NewArena()
	at := a.Alloc(8, 8)
	if err := a.WriteF32(at, 3.5); err != nil {
		t.Fatal(err)
	}
	f, err := a.ReadF32(at)
	if err != nil || f != 3.5 {
		t.Errorf("f32 = %v, %v", f, err)
	}
	if err := a.WriteF64(at, -2.25); err != nil {
		t.Fatal(err)
	}
	d, err := a.ReadF64(at)
	if err != nil || d != -2.25 {
		t.Errorf("f64 = %v, %v", d, err)
	}
}

func TestPointers(t *testing.T) {
	a := NewArena()
	slot := a.Alloc(4, 4)
	target := a.Alloc(4, 4)
	if err := a.WritePtr(slot, ILP32, target); err != nil {
		t.Fatal(err)
	}
	got, err := a.ReadPtr(slot, ILP32)
	if err != nil || got != target {
		t.Errorf("ptr = %d, %v, want %d", got, err, target)
	}
}

func TestNullAndBoundsChecks(t *testing.T) {
	a := NewArena()
	if _, err := a.ReadU(Null, 4); err == nil {
		t.Error("NULL read accepted")
	}
	if err := a.WriteU(Addr(1<<20), 4, 0); err == nil {
		t.Error("out-of-bounds write accepted")
	}
	if _, err := a.ReadU(a.Alloc(4, 4), 3); err == nil {
		t.Error("invalid scalar size accepted")
	}
}

func layoutsFor(t *testing.T, src string, m Model) *Layouts {
	t.Helper()
	u, err := cparse.Parse("t.h", src, cparse.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return NewLayouts(u, m)
}

func TestPrimLayouts(t *testing.T) {
	l := layoutsFor(t, `
		struct S { char c; int i; short s; double d; float f; };
	`, ILP32)
	u := l.u.Lookup("S")
	lay, err := l.Of(u.Type)
	if err != nil {
		t.Fatal(err)
	}
	// c@0, i@4, s@8, d@16 (8-aligned), f@24 → size 32, align 8.
	want := []int{0, 4, 8, 16, 24}
	for i, w := range want {
		if lay.Offsets[i] != w {
			t.Errorf("offset[%d] = %d, want %d", i, lay.Offsets[i], w)
		}
	}
	if lay.Size != 32 || lay.Align != 8 {
		t.Errorf("size/align = %d/%d, want 32/8", lay.Size, lay.Align)
	}
}

func TestPointerSizeByModel(t *testing.T) {
	for _, c := range []struct {
		m    Model
		want int
	}{{ILP32, 4}, {LP64, 8}} {
		l := layoutsFor(t, `struct P { char c; int *p; };`, c.m)
		lay, err := l.Of(l.u.Lookup("P").Type)
		if err != nil {
			t.Fatal(err)
		}
		if lay.Offsets[1] != c.want {
			t.Errorf("model %d: pointer offset = %d, want %d", c.m, lay.Offsets[1], c.want)
		}
	}
}

func TestUnionLayout(t *testing.T) {
	l := layoutsFor(t, `union U { char c; double d; short s; };`, ILP32)
	lay, err := l.Of(l.u.Lookup("U").Type)
	if err != nil {
		t.Fatal(err)
	}
	if lay.Size != 8 || lay.Align != 8 {
		t.Errorf("union size/align = %d/%d, want 8/8", lay.Size, lay.Align)
	}
	for i, off := range lay.Offsets {
		if off != 0 {
			t.Errorf("union member %d at offset %d", i, off)
		}
	}
}

func TestArrayLayout(t *testing.T) {
	l := layoutsFor(t, `typedef float point[2]; struct Seg { point a; point b; };`, ILP32)
	lay, err := l.Of(l.u.Lookup("Seg").Type)
	if err != nil {
		t.Fatal(err)
	}
	if lay.Size != 16 || lay.Offsets[1] != 8 {
		t.Errorf("Seg layout = %+v", lay)
	}
}

func TestNestedStructLayout(t *testing.T) {
	l := layoutsFor(t, `
		struct Inner { char c; double d; };
		struct Outer { char pad; struct Inner in; };
	`, ILP32)
	lay, err := l.Of(l.u.Lookup("Outer").Type)
	if err != nil {
		t.Fatal(err)
	}
	// Inner has align 8 and size 16; Outer: pad@0, in@8 → size 24.
	if lay.Offsets[1] != 8 || lay.Size != 24 {
		t.Errorf("Outer layout = %+v", lay)
	}
}

func TestEnumLayout(t *testing.T) {
	l := layoutsFor(t, `enum E { A, B }; struct S { enum E e; };`, ILP32)
	lay, err := l.Of(l.u.Lookup("S").Type)
	if err != nil {
		t.Fatal(err)
	}
	if lay.Size != 4 {
		t.Errorf("enum struct size = %d", lay.Size)
	}
}

func TestIndefiniteArrayHasNoLayout(t *testing.T) {
	l := layoutsFor(t, `void f(float xs[]);`, ILP32)
	fn := l.u.Lookup("f").Type
	if _, err := l.Of(fn.Params[0].Type); err == nil {
		t.Error("indefinite array layout computed")
	}
}

func TestSelfContainingStructRejected(t *testing.T) {
	l := layoutsFor(t, `struct Node { int v; struct Node *next; };`, ILP32)
	// Through a pointer is fine.
	if _, err := l.Of(l.u.Lookup("Node").Type); err != nil {
		t.Errorf("linked node layout failed: %v", err)
	}
}

func TestEmptyStructSize(t *testing.T) {
	l := layoutsFor(t, `struct E {};`, ILP32)
	lay, err := l.Of(l.u.Lookup("E").Type)
	if err != nil {
		t.Fatal(err)
	}
	if lay.Size != 1 {
		t.Errorf("empty struct size = %d, want 1", lay.Size)
	}
}

// TestAllocOneStep: an allocation of any size is zeroed, aligned and
// distinct from its neighbours however the arena had to grow for it, the
// word at address 0 stays reserved, and memory a write dirtied is never
// handed out again.
func TestAllocOneStep(t *testing.T) {
	a := NewArena()
	if a.Size() != 8 {
		t.Errorf("an empty arena has size %d, want the reserved word's 8", a.Size())
	}
	end := 8
	for i, size := range []int{1, 4096, 0, 3, 0, 100000, 8} {
		align := 1 << (i % 4)
		at := a.Alloc(size, align)
		if int(at) < end || int(at)%align != 0 || int(at)-end >= align {
			t.Fatalf("Alloc(%d, %d) = %d after an arena of %d bytes", size, align, at, end)
		}
		if end = int(at) + max(size, 1); a.Size() != end {
			t.Fatalf("Alloc(%d, %d) left the arena at %d bytes, want %d", size, align, a.Size(), end)
		}
		w, err := a.Window(at, size)
		if err != nil {
			t.Fatal(err)
		}
		for k := range w {
			if w[k] != 0 {
				t.Fatalf("Alloc(%d, %d): byte %d is %#x, not zero", size, align, k, w[k])
			}
			w[k] = 0xAA
		}
	}
}

// TestGrowKeepsWindowsLive: allocations within what Grow reserved do not
// move the arena, so a window taken before them still is the arena's
// memory; Grow itself changes neither the size nor the contents.
func TestGrowKeepsWindowsLive(t *testing.T) {
	a := NewArena()
	first := a.Alloc(4, 4)
	if err := a.WriteU(first, 4, 0xDEADBEEF); err != nil {
		t.Fatal(err)
	}
	size := a.Size()
	a.Grow(3*8 + 1000*(8+8))
	if v, _ := a.ReadU(first, 4); a.Size() != size || v != 0xDEADBEEF {
		t.Fatalf("Grow left size %d (was %d) and the first word %#x", a.Size(), size, v)
	}
	at := a.Alloc(8, 8)
	w, err := a.Window(at, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		a.Alloc(8, 8)
	}
	PutU(w, 8, 0x1122334455667788)
	if v, _ := a.ReadU(at, 8); v != 0x1122334455667788 {
		t.Errorf("a write through a window taken before 1000 reserved allocations is lost: read %#x", v)
	}
	fresh := NewArena()
	fresh.Grow(64)
	if at := fresh.Alloc(64, 8); at != 8 || fresh.Size() != 72 {
		t.Errorf("the first allocation of a grown arena is at %d of %d bytes, want 8 of 72", at, fresh.Size())
	}
}

// TestWindow: a window is the check of a read or write made once — NULL
// and anything past the end are refused, an empty window at the very end
// is not — and is clipped to its length.
func TestWindow(t *testing.T) {
	a := NewArena()
	at := a.Alloc(16, 8)
	if _, err := a.Window(Null, 4); err == nil {
		t.Error("a window at NULL was granted")
	}
	if _, err := a.Window(at+8, 9); err == nil {
		t.Error("a window one byte past the end was granted")
	}
	if _, err := a.Window(Addr(a.Size())+1, 0); err == nil {
		t.Error("an empty window beyond the end was granted")
	}
	if _, err := a.Window(Addr(a.Size()), 0); err != nil {
		t.Errorf("an empty window at the end: %v", err)
	}
	w, err := a.Window(at+4, 8)
	if err != nil || len(w) != 8 || cap(w) != 8 {
		t.Fatalf("Window(at+4, 8) = %d bytes of %d, %v", len(w), cap(w), err)
	}
	for _, size := range []int{1, 2, 4, 8} {
		v := uint64(0xF1E2D3C4B5A69788) >> (8 * (8 - size))
		if !PutU(w, size, v) {
			t.Fatalf("PutU refused size %d", size)
		}
		got, ok := GetU(w, size)
		read, err := a.ReadU(at+4, size)
		if !ok || got != v || err != nil || read != v {
			t.Errorf("size %d: put %#x, GetU %#x %v, ReadU %#x %v", size, v, got, ok, read, err)
		}
	}
	if PutU(w, 3, 1) {
		t.Error("PutU took a 3-byte scalar")
	}
	if _, ok := GetU(w, 16); ok {
		t.Error("GetU took a 16-byte scalar")
	}
	if err := a.WriteU(at, 3, 1); err == nil {
		t.Error("WriteU took a 3-byte scalar")
	}
}

// TestAccessorErrors pins the exact error of every accessor on each way an
// access fails: NULL, starting one byte past the end, straddling the end
// by one byte and, where the caller names the width, a size no scalar
// has. The bounds are checked before the size. The arena is 24 bytes:
// the reserved word and one 16-byte block at 8.
func TestAccessorErrors(t *testing.T) {
	a := NewArena()
	if at := a.Alloc(16, 8); at != 8 || a.Size() != 24 {
		t.Fatalf("the block is at %d of %d bytes, want 8 of 24", at, a.Size())
	}
	type access func(at Addr, size int) error
	accessors := []struct {
		name  string
		width int // 0: the caller names it
		fn    access
	}{
		{"ReadU", 0, func(at Addr, n int) error { _, err := a.ReadU(at, n); return err }},
		{"WriteU", 0, func(at Addr, n int) error { return a.WriteU(at, n, 1) }},
		{"ReadI", 0, func(at Addr, n int) error { _, err := a.ReadI(at, n); return err }},
		{"ReadF32", 4, func(at Addr, _ int) error { _, err := a.ReadF32(at); return err }},
		{"WriteF32", 4, func(at Addr, _ int) error { return a.WriteF32(at, 1) }},
		{"ReadF64", 8, func(at Addr, _ int) error { _, err := a.ReadF64(at); return err }},
		{"WriteF64", 8, func(at Addr, _ int) error { return a.WriteF64(at, 1) }},
		{"ReadPtr/ILP32", 4, func(at Addr, _ int) error { _, err := a.ReadPtr(at, ILP32); return err }},
		{"WritePtr/ILP32", 4, func(at Addr, _ int) error { return a.WritePtr(at, ILP32, 8) }},
		{"ReadPtr/LP64", 8, func(at Addr, _ int) error { _, err := a.ReadPtr(at, LP64); return err }},
		{"WritePtr/LP64", 8, func(at Addr, _ int) error { return a.WritePtr(at, LP64, 8) }},
		{"Window", 0, func(at Addr, n int) error { _, err := a.Window(at, n); return err }},
	}
	type fault struct {
		at   Addr
		size int
		want string
	}
	bounds := map[int][]fault{
		4: {
			{Null, 4, "cmem: NULL dereference"},
			{24, 4, "cmem: access [24,28) beyond arena size 24"},
			{21, 4, "cmem: access [21,25) beyond arena size 24"},
		},
		8: {
			{Null, 8, "cmem: NULL dereference"},
			{24, 8, "cmem: access [24,32) beyond arena size 24"},
			{17, 8, "cmem: access [17,25) beyond arena size 24"},
		},
	}
	sizes := []fault{
		{8, 3, "cmem: invalid scalar size 3"},
		{8, 0, "cmem: invalid scalar size 0"},
		{8, 16, "cmem: invalid scalar size 16"},
		{24, 3, "cmem: access [24,27) beyond arena size 24"},
		{Null, 3, "cmem: NULL dereference"},
	}
	for _, acc := range accessors {
		faults := bounds[acc.width]
		switch {
		case acc.name == "Window":
			faults = append(bounds[4], bounds[8]...)
		case acc.width == 0:
			faults = append(append(bounds[4], bounds[8]...), sizes...)
		}
		for _, f := range faults {
			err := acc.fn(f.at, f.size)
			if err == nil || err.Error() != f.want {
				t.Errorf("%s(%d, %d) = %v, want %q", acc.name, f.at, f.size, err, f.want)
			}
		}
	}
}
