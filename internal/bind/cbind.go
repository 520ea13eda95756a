// Package bind connects annotated Stype declarations to concrete
// representations: it reads abstract values (package value) out of
// simulated C memory (package cmem) and Java heaps (package jheap) and
// writes them back. It consumes lower's Shape — the one reading of an
// annotated use — and owns only representation: loading and storing a
// scalar of n bits in an arena, a heap slot or a frame word, and
// allocating behind a pointer. A local Mockingbird stub is the composition
//
//	read(repr A) → convert(plan) → write(repr B) → invoke → read back …
//
// which is the structure of the generated JNI stubs described in §4 of
// the paper.
package bind

import (
	"fmt"
	"math"
	"math/big"

	"repro/internal/cmem"
	"repro/internal/lower"
	"repro/internal/stype"
	"repro/internal/value"
)

// maxDepth bounds recursive reads so cyclic object graphs fail cleanly
// instead of recursing forever (by-value lowering assumes trees).
const maxDepth = 10000

// C binds declarations of a C universe to arena memory.
type C struct {
	u   *stype.Universe
	lay *cmem.Layouts
}

// NewC returns a C binder for the universe under the given data model.
func NewC(u *stype.Universe, model cmem.Model) *C {
	return &C{u: u, lay: cmem.NewLayouts(u, model)}
}

// Layouts exposes the layout calculator (used by tests and the fitter
// implementations).
func (c *C) Layouts() *cmem.Layouts { return c.lay }

// Read reads the value of annotated type t stored at addr. arrayLen is the
// runtime length of a list whose length rides in a sibling parameter, -1
// for none.
func (c *C) Read(t *stype.Type, mem *cmem.Arena, at cmem.Addr, arrayLen int) (value.Value, error) {
	return c.read(t, mem, at, arrayLen, 0)
}

func (c *C) read(t *stype.Type, mem *cmem.Arena, at cmem.Addr, arrayLen, depth int) (value.Value, error) {
	if depth > maxDepth {
		return nil, fmt.Errorf("bind: value nesting exceeds %d (cyclic data?)", maxDepth)
	}
	s, err := lower.ShapeOf(c.u, t)
	if err != nil {
		return nil, err
	}
	return c.readShape(&s, mem, at, arrayLen, depth)
}

func (c *C) readShape(s *lower.Shape, mem *cmem.Arena, at cmem.Addr, arrayLen, depth int) (value.Value, error) {
	switch s.Kind {
	case lower.Unit:
		return value.Unit{}, nil
	case lower.Bool, lower.Integer, lower.Character, lower.Real, lower.Enum:
		w, err := mem.ReadU(at, s.Bits/8)
		if err != nil {
			return nil, err
		}
		return scalar(s, w), nil
	case lower.Record:
		lay, err := c.lay.Of(s.Type)
		if err != nil {
			return nil, err
		}
		fields := make([]value.Value, len(s.Fields))
		for i, f := range s.Fields {
			if fields[i], err = c.read(f.Type, mem, at+cmem.Addr(lay.Offsets[f.Index]), -1, depth+1); err != nil {
				return nil, fmt.Errorf("field %s: %w", f.Name, err)
			}
		}
		return value.Record{Fields: fields}, nil
	case lower.Union:
		// C unions carry no discriminant in memory; the prototype's union
		// support was incomplete (§6) and the C binding matches that.
		return nil, fmt.Errorf("bind: cannot read C union %s (no discriminant in memory)", s.Type.Name)
	case lower.Fixed, lower.List, lower.Optional, lower.Deref:
		if s.Type.Kind == stype.KPointer {
			target, err := mem.ReadPtr(at, c.lay.Model())
			if err != nil {
				return nil, err
			}
			at = target
		}
		return c.readBehind(s, mem, at, arrayLen, depth)
	default:
		return nil, fmt.Errorf("bind: cannot read C %s", s.Type.Kind)
	}
}

// scalar decodes the low s.Bits bits of w, loaded from memory or found in
// a return word.
func scalar(s *lower.Shape, w uint64) value.Value {
	shift := uint(64 - s.Bits)
	w = w << shift >> shift
	switch {
	case s.Kind == lower.Real && s.Bits == 32:
		return value.Real{V: float64(ArgF32(w))}
	case s.Kind == lower.Real:
		return value.Real{V: ArgF64(w)}
	case s.Kind == lower.Bool:
		if w != 0 {
			w = 1
		}
	case s.Kind == lower.Character:
		return value.Char{R: rune(w)}
	case s.Signed:
		return value.NewInt(int64(w<<shift) >> shift)
	}
	return value.Int{V: new(big.Int).SetUint64(w)}
}

// readBehind reads what an array in place holds at target, or what a
// pointer that held target points to.
func (c *C) readBehind(s *lower.Shape, mem *cmem.Arena, target cmem.Addr, arrayLen, depth int) (value.Value, error) {
	switch {
	case s.Kind == lower.Fixed:
		elems, err := c.readElems(s.Elem, mem, target, s.N, depth)
		return value.Record{Fields: elems}, err
	case s.Kind == lower.List && arrayLen < 0:
		what := "indefinite array"
		if s.Type.Kind == stype.KPointer {
			what = "pointer-array"
		}
		return nil, fmt.Errorf("bind: runtime length for %s not supplied", what)
	case s.Kind == lower.List:
		elems, err := c.readElems(s.Elem, mem, target, arrayLen, depth)
		return value.FromSlice(elems), err
	case target != cmem.Null:
		inner, err := c.readShape(s.Inner, mem, target, -1, depth+1)
		if err != nil || s.Kind == lower.Deref {
			return inner, err
		}
		return value.Some(inner), nil
	case s.Kind == lower.Deref:
		return nil, fmt.Errorf("bind: NULL in pointer annotated nonnull")
	}
	return value.Null(), nil
}

// readElems reads n contiguous elements starting at base.
func (c *C) readElems(elem *stype.Type, mem *cmem.Arena, base cmem.Addr, n, depth int) ([]value.Value, error) {
	if base == cmem.Null && n > 0 {
		return nil, fmt.Errorf("bind: NULL array of %d elements", n)
	}
	lay, err := c.lay.Of(elem)
	if err != nil {
		return nil, err
	}
	out := make([]value.Value, n)
	for i := range out {
		if out[i], err = c.read(elem, mem, base+cmem.Addr(i*lay.Size), -1, depth+1); err != nil {
			return nil, fmt.Errorf("element %d: %w", i, err)
		}
	}
	return out, nil
}

// Write stores v (a value of t's Mtype) at addr. Pointers allocate their
// referents in the arena.
func (c *C) Write(t *stype.Type, mem *cmem.Arena, at cmem.Addr, v value.Value) error {
	return c.write(t, mem, at, v, 0)
}

func (c *C) write(t *stype.Type, mem *cmem.Arena, at cmem.Addr, v value.Value, depth int) error {
	if depth > maxDepth {
		return fmt.Errorf("bind: value nesting exceeds %d", maxDepth)
	}
	s, err := lower.ShapeOf(c.u, t)
	if err != nil {
		return err
	}
	return c.writeShape(&s, mem, at, v, depth)
}

func (c *C) writeShape(s *lower.Shape, mem *cmem.Arena, at cmem.Addr, v value.Value, depth int) error {
	switch s.Kind {
	case lower.Unit:
		return nil
	case lower.Bool, lower.Integer, lower.Character, lower.Real, lower.Enum:
		w, err := word(s, v)
		if err != nil {
			return err
		}
		return mem.WriteU(at, s.Bits/8, w)
	case lower.Record:
		lay, err := c.lay.Of(s.Type)
		if err != nil {
			return err
		}
		rec, ok := v.(value.Record)
		if !ok || len(rec.Fields) != len(s.Fields) {
			return fmt.Errorf("bind: struct %s wants %d-field record, got %s", s.Type.Name, len(s.Fields), v)
		}
		for i, f := range s.Fields {
			if err := c.write(f.Type, mem, at+cmem.Addr(lay.Offsets[f.Index]), rec.Fields[i], depth+1); err != nil {
				return fmt.Errorf("field %s: %w", f.Name, err)
			}
		}
		return nil
	case lower.Union:
		return fmt.Errorf("bind: cannot write C union %s", s.Type.Name)
	case lower.Fixed, lower.List, lower.Optional, lower.Deref:
		if s.Type.Kind == stype.KPointer {
			target, err := c.writeBehind(s, mem, v, depth)
			if err != nil {
				return err
			}
			return mem.WritePtr(at, c.lay.Model(), target)
		}
		if s.Kind == lower.List {
			return fmt.Errorf("bind: cannot write indefinite array in place (use a pointer parameter)")
		}
		elems, err := elements(s, v)
		if err != nil {
			return err
		}
		return c.writeElems(s.Elem, mem, at, elems, depth)
	default:
		return fmt.Errorf("bind: cannot write C %s", s.Type.Kind)
	}
}

// word encodes v as the bits of scalar s: what memory stores the low
// s.Bits of, and an argument word carries whole.
func word(s *lower.Shape, v value.Value) (uint64, error) {
	switch pv := v.(type) {
	case value.Real:
		if s.Kind == lower.Real && s.Bits == 32 {
			return RetF32(float32(pv.V)), nil
		} else if s.Kind == lower.Real {
			return RetF64(pv.V), nil
		}
	case value.Char:
		if s.Kind != lower.Real {
			return uint64(pv.R), nil
		}
	case value.Int:
		if n, err := pv.Int64(); s.Kind == lower.Real {
			break
		} else if err == nil {
			return uint64(n), nil
		} else if pv.V != nil && pv.V.IsUint64() {
			return pv.V.Uint64(), nil // large unsigned values still fit in the word
		} else {
			return 0, err
		}
	}
	return 0, fmt.Errorf("bind: %s %s cannot hold %T", s.Kind, s.Type, v)
}

// elements are the values a Fixed or List shape holds one element each of.
func elements(s *lower.Shape, v value.Value) ([]value.Value, error) {
	if s.Kind == lower.List {
		return value.ToSlice(v)
	}
	rec, ok := v.(value.Record)
	if !ok || len(rec.Fields) != s.N {
		return nil, fmt.Errorf("bind: %s wants %d-field record, got %s", s.Type, s.N, v)
	}
	return rec.Fields, nil
}

// writeBehind allocates what a pointer of shape s points to (an array
// parameter decays to one), writes v there and returns the address the
// pointer takes.
func (c *C) writeBehind(s *lower.Shape, mem *cmem.Arena, v value.Value, depth int) (cmem.Addr, error) {
	lay, err := c.lay.Of(s.Type.ElemType)
	if err != nil {
		return cmem.Null, err
	}
	switch s.Kind {
	case lower.Fixed, lower.List:
		elems, err := elements(s, v)
		if err != nil || len(elems) == 0 {
			return cmem.Null, err
		}
		base := mem.Alloc(len(elems)*lay.Size, lay.Align)
		return base, c.writeElems(s.Elem, mem, base, elems, depth)
	case lower.Optional:
		cv, ok := v.(value.Choice)
		if !ok {
			return cmem.Null, fmt.Errorf("bind: nullable pointer wants choice, got %T", v)
		}
		if cv.Alt == 0 {
			return cmem.Null, nil
		}
		v = cv.V
	}
	base := mem.Alloc(lay.Size, lay.Align)
	return base, c.writeShape(s.Inner, mem, base, v, depth+1)
}

// writeElems stores contiguous elements from base on.
func (c *C) writeElems(elem *stype.Type, mem *cmem.Arena, base cmem.Addr, elems []value.Value, depth int) error {
	lay, err := c.lay.Of(elem)
	for i := 0; i < len(elems) && err == nil; i++ {
		err = c.write(elem, mem, base+cmem.Addr(i*lay.Size), elems[i], depth+1)
	}
	return err
}

// outBuffer allocates what an out parameter points to for the callee to
// fill, and returns its address.
func (c *C) outBuffer(t *stype.Type, mem *cmem.Arena) (uint64, error) {
	s, err := lower.ShapeOf(c.u, t)
	if err != nil {
		return 0, err
	}
	if s.Type.Kind != stype.KPointer || s.Kind == lower.List {
		return 0, fmt.Errorf("an out parameter must be a pointer to one value or to a fixed number of them")
	}
	lay, err := c.lay.Of(s.Type.ElemType)
	if err != nil {
		return 0, err
	}
	return uint64(mem.Alloc(max(s.N, 1)*lay.Size, lay.Align)), nil
}

// CFunc is a registered C function implementation: it receives raw
// argument words (scalars or addresses) and operates on the arena like
// compiled C code would on process memory.
type CFunc func(mem *cmem.Arena, args []uint64) (uint64, error)

// ArgF32 decodes a float argument word.
func ArgF32(w uint64) float32 { return math.Float32frombits(uint32(w)) }

// ArgF64 decodes a double argument word.
func ArgF64(w uint64) float64 { return math.Float64frombits(w) }

// RetF32 encodes a float return word.
func RetF32(f float32) uint64 { return uint64(math.Float32bits(f)) }

// RetF64 encodes a double return word.
func RetF64(f float64) uint64 { return math.Float64bits(f) }

// Call invokes a C function implementation through the binding: it writes
// the input record into fresh arena storage following the declaration's
// annotated signature, calls impl, and reads back the output record
// (out/inout parameters in declaration order, then the return value) —
// the C half of a local stub.
func (c *C) Call(decl *stype.Decl, impl CFunc, mem *cmem.Arena, inputs value.Value) (value.Value, error) {
	fn := decl.Type
	if fn.Kind != stype.KFunc {
		return nil, fmt.Errorf("bind: %s is not a function", decl.Name)
	}
	sig, err := lower.SignatureOf(fn.Params, fn.Result)
	if err != nil {
		return nil, err
	}
	inRec, ok := inputs.(value.Record)
	if !ok {
		return nil, fmt.Errorf("bind: inputs must be a record, got %T", inputs)
	}

	// Pair input record fields with in/inout parameters in order.
	inVals := make(map[string]value.Value)
	idx := 0
	for _, p := range fn.Params {
		role := sig.Roles[p.Name]
		if role != lower.RoleIn && role != lower.RoleInOut {
			continue
		}
		if idx >= len(inRec.Fields) {
			return nil, fmt.Errorf("bind: too few input fields for %s", decl.Name)
		}
		inVals[p.Name] = inRec.Fields[idx]
		idx++
	}
	if idx != len(inRec.Fields) {
		return nil, fmt.Errorf("bind: %d extra input fields for %s", len(inRec.Fields)-idx, decl.Name)
	}

	// Lengths of list-valued arrays, for length parameters.
	listLens := make(map[string]int)
	for lenName, arrName := range sig.LengthOf {
		av, ok := inVals[arrName]
		if !ok {
			return nil, fmt.Errorf("bind: array %s (length %s) is not an input", arrName, lenName)
		}
		elems, err := value.ToSlice(av)
		if err != nil {
			return nil, fmt.Errorf("bind: array %s: %w", arrName, err)
		}
		listLens[lenName] = len(elems)
	}

	args := make([]uint64, len(fn.Params))
	for i, p := range fn.Params {
		switch sig.Roles[p.Name] {
		case lower.RoleLength:
			args[i] = uint64(listLens[p.Name])
		case lower.RoleIn, lower.RoleInOut:
			args[i], err = c.argWord(p.Type, mem, inVals[p.Name])
		case lower.RoleOut:
			args[i], err = c.outBuffer(p.Type, mem)
		}
		if err != nil {
			return nil, fmt.Errorf("bind: parameter %s: %w", p.Name, err)
		}
	}

	ret, err := impl(mem, args)
	if err != nil {
		return nil, fmt.Errorf("bind: %s: %w", decl.Name, err)
	}

	// Collect outputs: what each out/inout pointer points to now, in
	// order, then the return.
	var outs []value.Value
	for i, p := range fn.Params {
		role := sig.Roles[p.Name]
		if role != lower.RoleOut && role != lower.RoleInOut {
			continue
		}
		v, err := c.retValue(p.Type, mem, args[i])
		if err != nil {
			return nil, fmt.Errorf("bind: out parameter %s: %w", p.Name, err)
		}
		outs = append(outs, v)
	}
	if fn.Result != nil {
		rv, err := c.retValue(fn.Result, mem, ret)
		if err != nil {
			return nil, fmt.Errorf("bind: return: %w", err)
		}
		outs = append(outs, rv)
	}
	return value.Record{Fields: outs}, nil
}

// argWord turns an input value into a call argument word: a scalar's
// bits, or the address of arena storage allocated for what a pointer
// parameter points to (an array parameter decays to one).
func (c *C) argWord(t *stype.Type, mem *cmem.Arena, v value.Value) (uint64, error) {
	s, err := lower.ShapeOf(c.u, t)
	if err != nil {
		return 0, err
	}
	switch s.Kind {
	case lower.Bool, lower.Integer, lower.Character, lower.Real, lower.Enum:
		return word(&s, v)
	case lower.Fixed, lower.List, lower.Optional, lower.Deref:
		target, err := c.writeBehind(&s, mem, v, 0)
		return uint64(target), err
	}
	return 0, fmt.Errorf("cannot pass %s by value", s.Type.Kind)
}

// retValue decodes a return word: a scalar's bits, or the address a
// returned pointer holds.
func (c *C) retValue(t *stype.Type, mem *cmem.Arena, w uint64) (value.Value, error) {
	s, err := lower.ShapeOf(c.u, t)
	if err != nil {
		return nil, err
	}
	switch {
	case s.Kind == lower.Unit:
		return value.Unit{}, nil
	case s.Bits > 0:
		return scalar(&s, w), nil
	case s.Type.Kind == stype.KPointer:
		return c.readBehind(&s, mem, cmem.Addr(w), -1, 0)
	}
	return nil, fmt.Errorf("cannot return %s by value", s.Type.Kind)
}
