// Package jheap simulates a Java object heap: objects with typed fields
// addressed by reference, null references, reference aliasing, primitive
// and reference arrays, and a built-in java.util.Vector. The paper's local
// stubs traverse real JVM objects through JNI; the binding layer traverses
// a Heap instead, exercising identical structure: nullable references,
// object graphs with sharing, and collections of indefinite size.
package jheap

import (
	"fmt"
)

// Ref is an object reference. 0 is null.
type Ref int32

// NullRef is the null reference.
const NullRef Ref = 0

// SlotKind tags the content of a field slot.
type SlotKind uint8

// Slot kinds.
const (
	SlotInt SlotKind = iota + 1 // boolean, byte, short, int, long
	SlotFloat
	SlotChar
	SlotRef
)

// Slot is one field value.
type Slot struct {
	Kind SlotKind
	I    int64
	F    float64
	C    rune
	R    Ref
}

// IntSlot returns an integral slot (covers boolean/byte/short/int/long).
func IntSlot(v int64) Slot { return Slot{Kind: SlotInt, I: v} }

// FloatSlot returns a floating slot.
func FloatSlot(v float64) Slot { return Slot{Kind: SlotFloat, F: v} }

// CharSlot returns a char slot.
func CharSlot(r rune) Slot { return Slot{Kind: SlotChar, C: r} }

// RefSlot returns a reference slot.
func RefSlot(r Ref) Slot { return Slot{Kind: SlotRef, R: r} }

type object struct {
	class  string
	fields []Slot
	box    *box // the elements of a built-in container, nil for others
	// isVector / isArray discriminate the built-in container kinds.
	isVector  bool
	isRefArr  bool
	isPrimArr bool
}

// box is the backing store of Vectors and reference arrays, or of primitive arrays.
type box struct {
	elems []Ref
	prims []Slot
}

// Heap is a simulated Java heap; nothing in it moves or is freed.
type Heap struct {
	slabs [][]object // object r is slabs[(r-1)/objSlab][(r-1)%objSlab]
	live  int
	slots []Slot // what is left of the slab fields are carved from
}

const objSlab, slotSlab = 64, 256 // objects and field slots a slab holds

// NewHeap returns an empty heap.
func NewHeap() *Heap { return &Heap{} }

// Live returns the number of live objects.
func (h *Heap) Live() int { return h.live }

func (h *Heap) add(o object) Ref {
	if h.live%objSlab == 0 {
		h.slabs = append(h.slabs, make([]object, objSlab))
	}
	h.slabs[h.live/objSlab][h.live%objSlab] = o
	h.live++
	return Ref(h.live)
}

func (h *Heap) get(r Ref) (*object, error) {
	if r == NullRef {
		return nil, fmt.Errorf("jheap: null reference")
	}
	if int(r) > h.live || r < 0 {
		return nil, fmt.Errorf("jheap: dangling reference %d", r)
	}
	return &h.slabs[(r-1)/objSlab][(r-1)%objSlab], nil
}

// New allocates an object of the class with the given field count; fields
// start zeroed (int 0 / null), with no spare room an append could reach.
func (h *Heap) New(class string, numFields int) Ref {
	if numFields > len(h.slots) {
		h.slots = make([]Slot, max(slotSlab, numFields))
	}
	fields := h.slots[:numFields:numFields]
	h.slots = h.slots[numFields:]
	return h.add(object{class: class, fields: fields})
}

// Class returns the class name of the object.
func (h *Heap) Class(r Ref) (string, error) {
	o, err := h.get(r)
	if err != nil {
		return "", err
	}
	return o.class, nil
}

// SetField stores a field slot.
func (h *Heap) SetField(r Ref, idx int, s Slot) error {
	o, err := h.get(r)
	if err != nil {
		return err
	}
	if idx < 0 || idx >= len(o.fields) {
		return fmt.Errorf("jheap: field %d out of range (class %s has %d)", idx, o.class, len(o.fields))
	}
	o.fields[idx] = s
	return nil
}

// Field loads a field slot.
func (h *Heap) Field(r Ref, idx int) (Slot, error) {
	o, err := h.get(r)
	if err != nil {
		return Slot{}, err
	}
	if idx < 0 || idx >= len(o.fields) {
		return Slot{}, fmt.Errorf("jheap: field %d out of range (class %s has %d)", idx, o.class, len(o.fields))
	}
	return o.fields[idx], nil
}

// Fields returns the object's field slots themselves, not a copy: a
// caller that has resolved a reference once reads and writes its fields
// by index, under the checks Field and SetField make on every call.
func (h *Heap) Fields(r Ref) ([]Slot, error) {
	o, err := h.get(r)
	if err != nil {
		return nil, err
	}
	return o.fields, nil
}

// NewVector allocates an empty java.util.Vector (or subclass).
func (h *Heap) NewVector(class string) Ref {
	if class == "" {
		class = "java.util.Vector"
	}
	return h.add(object{class: class, isVector: true, box: &box{}})
}

// VectorAppend appends an element reference.
func (h *Heap) VectorAppend(r Ref, elem Ref) error {
	o, err := h.get(r)
	if err != nil {
		return err
	}
	if !o.isVector {
		return fmt.Errorf("jheap: %s is not a Vector", o.class)
	}
	o.box.elems = append(o.box.elems, elem)
	return nil
}

// VectorLen returns the element count.
func (h *Heap) VectorLen(r Ref) (int, error) {
	o, err := h.get(r)
	if err != nil {
		return 0, err
	}
	if !o.isVector {
		return 0, fmt.Errorf("jheap: %s is not a Vector", o.class)
	}
	return len(o.box.elems), nil
}

// VectorAt returns the element at index i.
func (h *Heap) VectorAt(r Ref, i int) (Ref, error) {
	o, err := h.get(r)
	if err != nil {
		return NullRef, err
	}
	if !o.isVector {
		return NullRef, fmt.Errorf("jheap: %s is not a Vector", o.class)
	}
	if i < 0 || i >= len(o.box.elems) {
		return NullRef, fmt.Errorf("jheap: vector index %d out of range %d", i, len(o.box.elems))
	}
	return o.box.elems[i], nil
}

// VectorElems returns the Vector's element references themselves, not a
// copy, clipped so that an append cannot reach the Vector's spare room.
func (h *Heap) VectorElems(r Ref) ([]Ref, error) {
	o, err := h.get(r)
	if err != nil {
		return nil, err
	}
	if !o.isVector {
		return nil, fmt.Errorf("jheap: %s is not a Vector", o.class)
	}
	return o.box.elems[:len(o.box.elems):len(o.box.elems)], nil
}

// NewRefArray allocates a reference array (elements start null).
func (h *Heap) NewRefArray(class string, length int) Ref {
	return h.add(object{class: class + "[]", isRefArr: true, box: &box{elems: make([]Ref, length)}})
}

// NewPrimArray allocates a primitive array of the given slot kind.
func (h *Heap) NewPrimArray(class string, length int) Ref {
	return h.add(object{class: class + "[]", isPrimArr: true, box: &box{prims: make([]Slot, length)}})
}

// ArrayLen returns the length of a reference or primitive array, or of a
// Vector.
func (h *Heap) ArrayLen(r Ref) (int, error) {
	o, err := h.get(r)
	if err != nil {
		return 0, err
	}
	switch {
	case o.isRefArr, o.isVector:
		return len(o.box.elems), nil
	case o.isPrimArr:
		return len(o.box.prims), nil
	default:
		return 0, fmt.Errorf("jheap: %s is not an array", o.class)
	}
}

// RefArraySet stores into a reference array.
func (h *Heap) RefArraySet(r Ref, i int, elem Ref) error {
	o, err := h.get(r)
	if err != nil {
		return err
	}
	if !o.isRefArr {
		return fmt.Errorf("jheap: %s is not a reference array", o.class)
	}
	if i < 0 || i >= len(o.box.elems) {
		return fmt.Errorf("jheap: index %d out of range %d", i, len(o.box.elems))
	}
	o.box.elems[i] = elem
	return nil
}

// RefArrayAt loads from a reference array.
func (h *Heap) RefArrayAt(r Ref, i int) (Ref, error) {
	o, err := h.get(r)
	if err != nil {
		return NullRef, err
	}
	if !o.isRefArr {
		return NullRef, fmt.Errorf("jheap: %s is not a reference array", o.class)
	}
	if i < 0 || i >= len(o.box.elems) {
		return NullRef, fmt.Errorf("jheap: index %d out of range %d", i, len(o.box.elems))
	}
	return o.box.elems[i], nil
}

// PrimArraySet stores into a primitive array.
func (h *Heap) PrimArraySet(r Ref, i int, s Slot) error {
	o, err := h.get(r)
	if err != nil {
		return err
	}
	if !o.isPrimArr {
		return fmt.Errorf("jheap: %s is not a primitive array", o.class)
	}
	if i < 0 || i >= len(o.box.prims) {
		return fmt.Errorf("jheap: index %d out of range %d", i, len(o.box.prims))
	}
	o.box.prims[i] = s
	return nil
}

// PrimArrayAt loads from a primitive array.
func (h *Heap) PrimArrayAt(r Ref, i int) (Slot, error) {
	o, err := h.get(r)
	if err != nil {
		return Slot{}, err
	}
	if !o.isPrimArr {
		return Slot{}, fmt.Errorf("jheap: %s is not a primitive array", o.class)
	}
	if i < 0 || i >= len(o.box.prims) {
		return Slot{}, fmt.Errorf("jheap: index %d out of range %d", i, len(o.box.prims))
	}
	return o.box.prims[i], nil
}

// IsVector reports whether the reference is a Vector.
func (h *Heap) IsVector(r Ref) bool {
	o, err := h.get(r)
	return err == nil && o.isVector
}
