package jheap

import "testing"

func TestNewObjectAndFields(t *testing.T) {
	h := NewHeap()
	r := h.New("Point", 2)
	if r == NullRef {
		t.Fatal("New returned null")
	}
	if cls, _ := h.Class(r); cls != "Point" {
		t.Errorf("class = %q", cls)
	}
	if err := h.SetField(r, 0, FloatSlot(1.5)); err != nil {
		t.Fatal(err)
	}
	s, err := h.Field(r, 0)
	if err != nil || s.Kind != SlotFloat || s.F != 1.5 {
		t.Errorf("field = %+v, %v", s, err)
	}
	// Fresh fields are zero int slots.
	s, _ = h.Field(r, 1)
	if s.Kind != 0 || s.I != 0 {
		t.Errorf("fresh field = %+v", s)
	}
}

func TestFieldBounds(t *testing.T) {
	h := NewHeap()
	r := h.New("C", 1)
	if err := h.SetField(r, 5, IntSlot(1)); err == nil {
		t.Error("out-of-range field accepted")
	}
	if _, err := h.Field(r, -1); err == nil {
		t.Error("negative field accepted")
	}
}

func TestNullAndDangling(t *testing.T) {
	h := NewHeap()
	if _, err := h.Field(NullRef, 0); err == nil {
		t.Error("null dereference accepted")
	}
	if _, err := h.Field(Ref(99), 0); err == nil {
		t.Error("dangling reference accepted")
	}
}

func TestVector(t *testing.T) {
	h := NewHeap()
	v := h.NewVector("PointVector")
	if !h.IsVector(v) {
		t.Fatal("not a vector")
	}
	p := h.New("Point", 2)
	if err := h.VectorAppend(v, p); err != nil {
		t.Fatal(err)
	}
	if err := h.VectorAppend(v, NullRef); err != nil {
		t.Fatal(err)
	}
	n, err := h.VectorLen(v)
	if err != nil || n != 2 {
		t.Fatalf("len = %d, %v", n, err)
	}
	got, err := h.VectorAt(v, 0)
	if err != nil || got != p {
		t.Errorf("at(0) = %d, %v", got, err)
	}
	if _, err := h.VectorAt(v, 9); err == nil {
		t.Error("out-of-range index accepted")
	}
	if err := h.VectorAppend(p, p); err == nil {
		t.Error("append to non-vector accepted")
	}
}

func TestVectorDefaultClass(t *testing.T) {
	h := NewHeap()
	v := h.NewVector("")
	if cls, _ := h.Class(v); cls != "java.util.Vector" {
		t.Errorf("class = %q", cls)
	}
}

func TestRefArray(t *testing.T) {
	h := NewHeap()
	a := h.NewRefArray("Point", 3)
	n, err := h.ArrayLen(a)
	if err != nil || n != 3 {
		t.Fatalf("len = %d, %v", n, err)
	}
	p := h.New("Point", 2)
	if err := h.RefArraySet(a, 1, p); err != nil {
		t.Fatal(err)
	}
	got, err := h.RefArrayAt(a, 1)
	if err != nil || got != p {
		t.Errorf("at(1) = %d, %v", got, err)
	}
	if got, _ := h.RefArrayAt(a, 0); got != NullRef {
		t.Errorf("fresh element = %d, want null", got)
	}
	if err := h.RefArraySet(a, 5, p); err == nil {
		t.Error("out-of-range set accepted")
	}
	if err := h.PrimArraySet(a, 0, IntSlot(1)); err == nil {
		t.Error("prim set on ref array accepted")
	}
}

func TestPrimArray(t *testing.T) {
	h := NewHeap()
	a := h.NewPrimArray("float", 2)
	if err := h.PrimArraySet(a, 0, FloatSlot(2.5)); err != nil {
		t.Fatal(err)
	}
	s, err := h.PrimArrayAt(a, 0)
	if err != nil || s.F != 2.5 {
		t.Errorf("at(0) = %+v, %v", s, err)
	}
	if _, err := h.RefArrayAt(a, 0); err == nil {
		t.Error("ref read on prim array accepted")
	}
}

func TestArrayLenOnNonArray(t *testing.T) {
	h := NewHeap()
	o := h.New("X", 0)
	if _, err := h.ArrayLen(o); err == nil {
		t.Error("ArrayLen on plain object accepted")
	}
}

func TestAliasing(t *testing.T) {
	// Two fields referring to the same object observe each other's writes
	// — the aliasing the noalias annotation promises away.
	h := NewHeap()
	shared := h.New("Point", 2)
	line := h.New("Line", 2)
	_ = h.SetField(line, 0, RefSlot(shared))
	_ = h.SetField(line, 1, RefSlot(shared))
	_ = h.SetField(shared, 0, FloatSlot(9))
	s0, _ := h.Field(line, 0)
	s1, _ := h.Field(line, 1)
	if s0.R != s1.R {
		t.Fatal("aliases differ")
	}
	v, _ := h.Field(s1.R, 0)
	if v.F != 9 {
		t.Errorf("alias write not visible: %v", v.F)
	}
}

func TestLive(t *testing.T) {
	h := NewHeap()
	if h.Live() != 0 {
		t.Errorf("fresh heap live = %d", h.Live())
	}
	h.New("A", 0)
	h.NewVector("")
	if h.Live() != 2 {
		t.Errorf("live = %d, want 2", h.Live())
	}
}

func TestSlotConstructors(t *testing.T) {
	if s := IntSlot(7); s.Kind != SlotInt || s.I != 7 {
		t.Errorf("IntSlot = %+v", s)
	}
	if s := FloatSlot(1.5); s.Kind != SlotFloat || s.F != 1.5 {
		t.Errorf("FloatSlot = %+v", s)
	}
	if s := CharSlot('x'); s.Kind != SlotChar || s.C != 'x' {
		t.Errorf("CharSlot = %+v", s)
	}
	if s := RefSlot(3); s.Kind != SlotRef || s.R != 3 {
		t.Errorf("RefSlot = %+v", s)
	}
}

// TestFields: the accessor hands out the object's own slots under the
// checks Field and SetField make per call.
func TestFields(t *testing.T) {
	h := NewHeap()
	p := h.New("Point", 2)
	_ = h.SetField(p, 1, FloatSlot(2.5))
	fields, err := h.Fields(p)
	if err != nil || len(fields) != 2 || fields[1] != FloatSlot(2.5) {
		t.Fatalf("Fields = %v, %v", fields, err)
	}
	fields[0] = IntSlot(7)
	if s, _ := h.Field(p, 0); s != IntSlot(7) {
		t.Errorf("a store through Fields is not in the object: field 0 = %v", s)
	}
	if f, err := h.Fields(h.New("Empty", 0)); err != nil || len(f) != 0 {
		t.Errorf("Fields of a fieldless object = %v, %v", f, err)
	}
	if f, err := h.Fields(h.NewVector("")); err != nil || len(f) != 0 {
		t.Errorf("Fields of a Vector = %v, %v", f, err)
	}
	for _, r := range []Ref{NullRef, 99, -1} {
		if _, err := h.Fields(r); err == nil {
			t.Errorf("Fields(%d) succeeded", r)
		}
	}
}

// TestSlabsKeepObjectsApart: objects carved from one slab do not share
// fields — each field slice ends where its object does, and a store into
// one object leaves its neighbours as they were — and what an early object
// holds survives thousands of later allocations, over many slabs, one too
// wide for a slab among them.
func TestSlabsKeepObjectsApart(t *testing.T) {
	h := NewHeap()
	refs := make([]Ref, 300) // five slabs of objects, three of slots
	for i := range refs {
		refs[i] = h.New("P", 1+i%5)
		fields, err := h.Fields(refs[i])
		if err != nil || cap(fields) != len(fields) || len(fields) != 1+i%5 {
			t.Fatalf("object %d: fields len %d cap %d, %v", i, len(fields), cap(fields), err)
		}
	}
	// unchanged reports whether object i's fields all still read zero.
	unchanged := func(i int) bool {
		fields, _ := h.Fields(refs[i])
		for _, s := range fields {
			if s != (Slot{}) {
				return false
			}
		}
		return true
	}
	for i := 1; i+1 < len(refs); i++ {
		for f := 0; f < 1+i%5; f++ {
			if err := h.SetField(refs[i], f, IntSlot(int64(i))); err != nil {
				t.Fatal(err)
			}
		}
		if !unchanged(i-1) || !unchanged(i+1) {
			t.Fatalf("a store into object %d reached a neighbour", i)
		}
		fields, _ := h.Fields(refs[i])
		clear(fields)
	}

	first, _ := h.Fields(refs[0])
	first[0] = FloatSlot(2.5)
	live := h.Live()
	for i := 0; i < 10000; i++ {
		h.New("Q", i%7)
	}
	wide := h.New("Wide", 3*slotSlab)
	if h.Live() != live+10001 {
		t.Errorf("live = %d after 10 001 more objects, want %d", h.Live(), live+10001)
	}
	if s, _ := h.Field(refs[0], 0); s != FloatSlot(2.5) || first[0] != s {
		t.Errorf("the first object's field reads %+v (its slice %+v) after 10 000 more", s, first[0])
	}
	if f, _ := h.Fields(wide); len(f) != 3*slotSlab || cap(f) != len(f) {
		t.Errorf("a wide object has %d fields, cap %d", len(f), cap(f))
	}
}

// TestVectorElems: the accessor hands out the Vector's own elements,
// clipped, under the checks VectorLen and VectorAt make per call.
func TestVectorElems(t *testing.T) {
	h := NewHeap()
	v := h.NewVector("")
	a, b := h.New("A", 0), h.New("B", 0)
	for _, e := range []Ref{a, NullRef, b} {
		if err := h.VectorAppend(v, e); err != nil {
			t.Fatal(err)
		}
	}
	elems, err := h.VectorElems(v)
	if err != nil || len(elems) != 3 || elems[0] != a || elems[1] != NullRef || elems[2] != b {
		t.Fatalf("VectorElems = %v, %v", elems, err)
	}
	if cap(elems) != len(elems) {
		t.Errorf("VectorElems has room for %d elements beyond its %d", cap(elems)-len(elems), len(elems))
	}
	_ = append(elems, a)
	if n, _ := h.VectorLen(v); n != 3 {
		t.Errorf("an append to VectorElems' result grew the Vector to %d", n)
	}
	if e, err := h.VectorElems(h.NewVector("")); err != nil || len(e) != 0 {
		t.Errorf("VectorElems of an empty Vector = %v, %v", e, err)
	}
	for _, r := range []Ref{NullRef, 99, a, h.NewRefArray("A", 2)} {
		if _, err := h.VectorElems(r); err == nil {
			t.Errorf("VectorElems(%d) succeeded", r)
		}
	}
}

// TestAccessorErrors pins the exact error of every accessor for each way
// a reference or an index can be wrong: null, dangling (past the last
// object and negative), a field or element index out of range at either
// end, and an object of the wrong kind.
func TestAccessorErrors(t *testing.T) {
	h := NewHeap()
	pt := h.New("Point", 2)
	vec := h.NewVector("")
	if err := h.VectorAppend(vec, pt); err != nil {
		t.Fatal(err)
	}
	refs := h.NewRefArray("Point", 3)
	prims := h.NewPrimArray("int", 3)
	spare := h.NewVector("") // VectorAppend's own call grows this one, not vec
	type access func(r Ref, i int) error
	accessors := []struct {
		name  string
		fn    access
		right Ref // an object of the kind the accessor wants
	}{
		{"Class", func(r Ref, _ int) error { _, err := h.Class(r); return err }, pt},
		{"SetField", func(r Ref, i int) error { return h.SetField(r, i, IntSlot(1)) }, pt},
		{"Field", func(r Ref, i int) error { _, err := h.Field(r, i); return err }, pt},
		{"Fields", func(r Ref, _ int) error { _, err := h.Fields(r); return err }, pt},
		{"VectorAppend", func(r Ref, _ int) error { return h.VectorAppend(r, pt) }, spare},
		{"VectorLen", func(r Ref, _ int) error { _, err := h.VectorLen(r); return err }, vec},
		{"VectorAt", func(r Ref, i int) error { _, err := h.VectorAt(r, i); return err }, vec},
		{"VectorElems", func(r Ref, _ int) error { _, err := h.VectorElems(r); return err }, vec},
		{"ArrayLen", func(r Ref, _ int) error { _, err := h.ArrayLen(r); return err }, refs},
		{"RefArraySet", func(r Ref, i int) error { return h.RefArraySet(r, i, pt) }, refs},
		{"RefArrayAt", func(r Ref, i int) error { _, err := h.RefArrayAt(r, i); return err }, refs},
		{"PrimArraySet", func(r Ref, i int) error { return h.PrimArraySet(r, i, IntSlot(1)) }, prims},
		{"PrimArrayAt", func(r Ref, i int) error { _, err := h.PrimArrayAt(r, i); return err }, prims},
	}
	type fault struct {
		r    Ref
		i    int
		want string
	}
	// Every accessor resolves its reference first.
	refFaults := []fault{
		{NullRef, 0, "jheap: null reference"},
		{Ref(h.Live() + 1), 0, "jheap: dangling reference 6"},
		{-1, 0, "jheap: dangling reference -1"},
	}
	// What each accessor says of an object of another kind, or of an
	// index outside the object.
	own := map[string][]fault{
		"SetField": {
			{pt, 2, "jheap: field 2 out of range (class Point has 2)"},
			{pt, -1, "jheap: field -1 out of range (class Point has 2)"},
		},
		"Field": {
			{pt, 2, "jheap: field 2 out of range (class Point has 2)"},
			{pt, -1, "jheap: field -1 out of range (class Point has 2)"},
		},
		"VectorAppend": {{pt, 0, "jheap: Point is not a Vector"}},
		"VectorLen":    {{refs, 0, "jheap: Point[] is not a Vector"}},
		"VectorAt": {
			{prims, 0, "jheap: int[] is not a Vector"},
			{vec, 1, "jheap: vector index 1 out of range 1"},
			{vec, -1, "jheap: vector index -1 out of range 1"},
		},
		"VectorElems": {{pt, 0, "jheap: Point is not a Vector"}},
		"ArrayLen":    {{pt, 0, "jheap: Point is not an array"}},
		"RefArraySet": {
			{prims, 0, "jheap: int[] is not a reference array"},
			{refs, 3, "jheap: index 3 out of range 3"},
			{refs, -1, "jheap: index -1 out of range 3"},
		},
		"RefArrayAt": {
			{vec, 0, "jheap: java.util.Vector is not a reference array"},
			{refs, 3, "jheap: index 3 out of range 3"},
		},
		"PrimArraySet": {
			{refs, 0, "jheap: Point[] is not a primitive array"},
			{prims, 3, "jheap: index 3 out of range 3"},
			{prims, -1, "jheap: index -1 out of range 3"},
		},
		"PrimArrayAt": {
			{vec, 0, "jheap: java.util.Vector is not a primitive array"},
			{prims, 3, "jheap: index 3 out of range 3"},
		},
	}
	for _, acc := range accessors {
		for _, f := range append(append([]fault(nil), refFaults...), own[acc.name]...) {
			err := acc.fn(f.r, f.i)
			if err == nil || err.Error() != f.want {
				t.Errorf("%s(%d, %d) = %v, want %q", acc.name, f.r, f.i, err, f.want)
			}
		}
		if err := acc.fn(acc.right, 0); err != nil {
			t.Errorf("%s(%d, 0) = %v on an object of its kind", acc.name, acc.right, err)
		}
	}
	// ArrayLen also reads a primitive array and a Vector.
	for _, r := range []Ref{prims, vec} {
		if _, err := h.ArrayLen(r); err != nil {
			t.Errorf("ArrayLen(%d) = %v", r, err)
		}
	}
}
