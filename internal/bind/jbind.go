package bind

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/jheap"
	"repro/internal/lower"
	"repro/internal/stype"
	"repro/internal/value"
)

// J binds declarations of a Java universe to a simulated heap.
type J struct {
	u *stype.Universe
}

// NewJ returns a Java binder for the universe.
func NewJ(u *stype.Universe) *J {
	return &J{u: u}
}

// PortRef renders a heap reference as an object-port reference string.
func PortRef(r jheap.Ref) string { return "jobj:" + strconv.Itoa(int(r)) }

// ParsePortRef recovers a heap reference from an object-port string.
func ParsePortRef(s string) (jheap.Ref, error) {
	rest, ok := strings.CutPrefix(s, "jobj:")
	if !ok {
		return jheap.NullRef, fmt.Errorf("bind: %q is not a heap object port", s)
	}
	n, err := strconv.Atoi(rest)
	if err != nil {
		return jheap.NullRef, fmt.Errorf("bind: bad object port %q", s)
	}
	return jheap.Ref(n), nil
}

// Read reads the value of annotated type t from a field slot.
func (j *J) Read(t *stype.Type, h *jheap.Heap, s jheap.Slot) (value.Value, error) {
	return j.read(t, h, s, 0)
}

func (j *J) read(t *stype.Type, h *jheap.Heap, slot jheap.Slot, depth int) (value.Value, error) {
	if depth > maxDepth {
		return nil, fmt.Errorf("bind: object nesting exceeds %d (cyclic by-value data?)", maxDepth)
	}
	s, err := lower.ShapeOf(j.u, t)
	if err != nil {
		return nil, err
	}
	return j.readShape(&s, h, slot, depth)
}

// storage is the kind of slot that holds a primitive the language reads
// as s.Native.
func storage(s *lower.Shape) jheap.SlotKind {
	switch s.Native {
	case lower.Real:
		return jheap.SlotFloat
	case lower.Character:
		return jheap.SlotChar
	}
	return jheap.SlotInt
}

// misplaced reports a primitive found in a slot of another kind than its
// storage.
func misplaced(s *lower.Shape, got jheap.SlotKind) error {
	name, slot := s.Type.String(), "int"
	switch s.Native {
	case lower.Bool:
		name = "boolean"
	case lower.Real:
		name, slot = "float", "float"
	case lower.Character:
		name, slot = "char", "char"
	}
	return fmt.Errorf("bind: %s wants %s slot, got %d", name, slot, got)
}

// what names the heap object a reference-typed shape refers to.
func what(s *lower.Shape) string {
	if s.Decl != nil {
		return "reference to " + s.Decl.Name
	}
	return "array"
}

func (j *J) readShape(s *lower.Shape, h *jheap.Heap, slot jheap.Slot, depth int) (value.Value, error) {
	switch s.Kind {
	case lower.Unit:
		return value.Unit{}, nil
	case lower.Bool, lower.Integer, lower.Character, lower.Real:
		// A char read as an integer, or an integer read as a character,
		// takes an integral or a character slot alike.
		if crossed := s.Kind != s.Native && s.Native != lower.Bool; slot.Kind != storage(s) && !crossed {
			return nil, misplaced(s, slot.Kind)
		}
		n := slot.I
		if slot.Kind == jheap.SlotChar {
			n = int64(slot.C)
		}
		switch s.Kind {
		case lower.Real:
			return value.Real{V: slot.F}, nil
		case lower.Character:
			return value.Char{R: rune(n)}, nil
		case lower.Bool:
			if n != 0 {
				n = 1
			}
		}
		return value.NewInt(n), nil
	case lower.Optional, lower.Record, lower.Port, lower.Fixed, lower.List:
		if s.Kind == lower.Record && s.Decl == nil {
			break // a class body has no storage of its own
		}
		if slot.Kind != jheap.SlotRef {
			return nil, fmt.Errorf("bind: %s wants ref slot, got %d", what(s), slot.Kind)
		}
		switch {
		case s.Kind == lower.Optional && slot.R == jheap.NullRef:
			return value.Null(), nil
		case s.Kind == lower.Optional:
			inner, err := j.readShape(s.Inner, h, slot, depth)
			if err != nil {
				return nil, err
			}
			return value.Some(inner), nil
		case slot.R == jheap.NullRef && s.Decl == nil:
			return nil, fmt.Errorf("bind: null array (initialize it or annotate the field ignore)")
		case slot.R == jheap.NullRef:
			return nil, fmt.Errorf("bind: null in reference to %s annotated nonnull", s.Decl.Name)
		}
		return j.readObject(s, h, slot.R, depth)
	}
	return nil, fmt.Errorf("bind: cannot read Java %s", s.Type.Kind)
}

// readObject reads the referent of a non-null reference: an object port,
// the fields of a by-value object, or the elements of a collection or an
// array.
func (j *J) readObject(s *lower.Shape, h *jheap.Heap, r jheap.Ref, depth int) (value.Value, error) {
	switch s.Kind {
	case lower.Port:
		return value.Port{Ref: PortRef(r)}, nil
	case lower.Record:
		fields := make([]value.Value, len(s.Fields))
		for i, f := range s.Fields {
			slot, err := h.Field(r, f.Index)
			if err == nil {
				fields[i], err = j.read(f.Type, h, slot, depth+1)
			}
			if err != nil {
				return nil, fmt.Errorf("bind: %s.%s: %w", s.Decl.Name, f.Name, err)
			}
		}
		return value.Record{Fields: fields}, nil
	}
	// A collection is a Vector of references; an array holds primitive
	// slots or references by its declared element.
	length, elem := h.ArrayLen, "array element"
	if s.Decl != nil {
		length, elem = h.VectorLen, "element"
	}
	n, err := length(r)
	if err != nil {
		return nil, fmt.Errorf("bind: %s: %w", what(s), err)
	}
	out := make([]value.Value, n)
	for i := range out {
		var slot jheap.Slot
		var er jheap.Ref
		switch {
		case s.Decl != nil:
			er, err = h.VectorAt(r, i)
			slot = jheap.RefSlot(er)
		case s.Elem.Kind == stype.KPrim:
			slot, err = h.PrimArrayAt(r, i)
		default:
			er, err = h.RefArrayAt(r, i)
			slot = jheap.RefSlot(er)
		}
		if err != nil {
			return nil, err
		}
		if out[i], err = j.read(s.Elem, h, slot, depth+1); err != nil {
			return nil, fmt.Errorf("bind: %s %d: %w", elem, i, err)
		}
	}
	if s.Kind == lower.List {
		return value.FromSlice(out), nil
	}
	if n != s.N {
		return nil, fmt.Errorf("bind: array of %d elements where %s holds %d", n, s.Type, s.N)
	}
	return value.Record{Fields: out}, nil
}

// Write materializes v in the heap, returning the slot holding it.
func (j *J) Write(t *stype.Type, h *jheap.Heap, v value.Value) (jheap.Slot, error) {
	return j.write(t, h, v, 0)
}

func (j *J) write(t *stype.Type, h *jheap.Heap, v value.Value, depth int) (jheap.Slot, error) {
	if depth > maxDepth {
		return jheap.Slot{}, fmt.Errorf("bind: value nesting exceeds %d", maxDepth)
	}
	s, err := lower.ShapeOf(j.u, t)
	if err != nil {
		return jheap.Slot{}, err
	}
	return j.writeShape(&s, h, v, depth)
}

func (j *J) writeShape(s *lower.Shape, h *jheap.Heap, v value.Value, depth int) (jheap.Slot, error) {
	switch s.Kind {
	case lower.Unit:
		return jheap.IntSlot(0), nil
	case lower.Bool, lower.Integer, lower.Character, lower.Real:
		w, err := word(s, v)
		if err != nil {
			return jheap.Slot{}, err
		}
		switch storage(s) {
		case jheap.SlotFloat:
			return jheap.FloatSlot(v.(value.Real).V), nil
		case jheap.SlotChar:
			return jheap.CharSlot(rune(w)), nil
		}
		return jheap.IntSlot(int64(w)), nil
	case lower.Optional:
		cv, ok := v.(value.Choice)
		if !ok {
			return jheap.Slot{}, fmt.Errorf("bind: nullable %s wants choice, got %T", what(s.Inner), v)
		}
		if cv.Alt == 0 {
			return jheap.RefSlot(jheap.NullRef), nil
		}
		return j.writeShape(s.Inner, h, cv.V, depth)
	case lower.Port:
		pv, ok := v.(value.Port)
		if !ok {
			return jheap.Slot{}, fmt.Errorf("bind: by-reference %s wants port, got %T", s.Decl.Name, v)
		}
		r, err := ParsePortRef(pv.Ref)
		return jheap.RefSlot(r), err
	case lower.Record:
		if s.Decl == nil {
			break
		}
		rec, ok := v.(value.Record)
		if !ok || len(rec.Fields) != len(s.Fields) {
			return jheap.Slot{}, fmt.Errorf("bind: by-value %s wants %d-field record, got %s", s.Decl.Name, len(s.Fields), v)
		}
		r := h.New(s.Decl.Name, len(s.Type.Fields))
		for i, f := range s.Fields {
			slot, err := j.write(f.Type, h, rec.Fields[i], depth+1)
			if err == nil {
				err = h.SetField(r, f.Index, slot)
			}
			if err != nil {
				return jheap.Slot{}, fmt.Errorf("bind: %s.%s: %w", s.Decl.Name, f.Name, err)
			}
		}
		return jheap.RefSlot(r), nil
	case lower.Fixed, lower.List:
		elems, err := elements(s, v)
		if err != nil {
			return jheap.Slot{}, err
		}
		var r jheap.Ref
		switch {
		case s.Decl != nil:
			r = h.NewVector(s.Decl.Name)
		case s.Elem.Kind == stype.KPrim:
			r = h.NewPrimArray(s.Elem.Prim.String(), len(elems))
		default:
			r = h.NewRefArray(s.Elem.Name, len(elems))
		}
		for i, e := range elems {
			slot, err := j.write(s.Elem, h, e, depth+1)
			switch {
			case err != nil:
				err = fmt.Errorf("bind: element %d: %w", i, err)
			case s.Decl != nil:
				err = h.VectorAppend(r, slot.R)
			case s.Elem.Kind == stype.KPrim:
				err = h.PrimArraySet(r, i, slot)
			default:
				err = h.RefArraySet(r, i, slot.R)
			}
			if err != nil {
				return jheap.Slot{}, err
			}
		}
		return jheap.RefSlot(r), nil
	}
	return jheap.Slot{}, fmt.Errorf("bind: cannot write Java %s", s.Type.Kind)
}
