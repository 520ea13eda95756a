// Package bind connects annotated Stype declarations to concrete
// representations: it reads abstract values (package value) out of
// simulated C memory (package cmem) and Java heaps (package jheap) and
// writes them back, following exactly the lowering decisions of package
// lower. A local Mockingbird stub is the composition
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

// Read reads the value of annotated type t stored at addr. lengths
// supplies runtime lengths for length-from arrays (keyed by the array
// parameter's name).
func (c *C) Read(t *stype.Type, mem *cmem.Arena, at cmem.Addr, arrayLen int) (value.Value, error) {
	return c.read(t, mem, at, arrayLen, 0)
}

func (c *C) read(t *stype.Type, mem *cmem.Arena, at cmem.Addr, arrayLen, depth int) (value.Value, error) {
	if depth > maxDepth {
		return nil, fmt.Errorf("bind: value nesting exceeds %d (cyclic data?)", maxDepth)
	}
	switch t.Kind {
	case stype.KPrim:
		return c.readPrim(t, mem, at)
	case stype.KEnum:
		n, err := mem.ReadI(at, 4)
		if err != nil {
			return nil, err
		}
		return value.NewInt(n), nil
	case stype.KNamed:
		target := t.Target
		if target == nil {
			target = c.u.Lookup(t.Name)
		}
		if target == nil {
			return nil, fmt.Errorf("bind: unresolved type %q", t.Name)
		}
		overlaid := *target.Type
		overlaid.Ann = target.Type.Ann.Merge(t.Ann)
		return c.read(&overlaid, mem, at, arrayLen, depth+1)
	case stype.KStruct:
		lay, err := c.lay.Of(t)
		if err != nil {
			return nil, err
		}
		var fields []value.Value
		for i, f := range t.Fields {
			if f.Type.Ann.Ignore {
				continue
			}
			fv, err := c.read(f.Type, mem, at+cmem.Addr(lay.Offsets[i]), -1, depth+1)
			if err != nil {
				return nil, fmt.Errorf("field %s: %w", f.Name, err)
			}
			fields = append(fields, fv)
		}
		return value.Record{Fields: fields}, nil
	case stype.KUnion:
		// C unions carry no discriminant in memory; the prototype's union
		// support was incomplete (§6) and the C binding matches that.
		return nil, fmt.Errorf("bind: cannot read C union %s (no discriminant in memory)", t.Name)
	case stype.KPointer:
		return c.readPointer(t, mem, at, arrayLen, depth)
	case stype.KArray:
		return c.readArray(t, mem, at, arrayLen, depth)
	default:
		return nil, fmt.Errorf("bind: cannot read C %s", t.Kind)
	}
}

func (c *C) readPrim(t *stype.Type, mem *cmem.Arena, at cmem.Addr) (value.Value, error) {
	asChar := func(def bool) bool {
		if t.Ann.AsChar != nil {
			return *t.Ann.AsChar
		}
		return def && t.Ann.Range == nil
	}
	switch t.Prim {
	case stype.PVoid:
		return value.Unit{}, nil
	case stype.PBool:
		u, err := mem.ReadU(at, 1)
		if err != nil {
			return nil, err
		}
		if u != 0 {
			u = 1
		}
		return value.NewInt(int64(u)), nil
	case stype.PF32:
		f, err := mem.ReadF32(at)
		if err != nil {
			return nil, err
		}
		return value.Real{V: float64(f)}, nil
	case stype.PF64:
		f, err := mem.ReadF64(at)
		if err != nil {
			return nil, err
		}
		return value.Real{V: f}, nil
	case stype.PChar8:
		if asChar(true) {
			u, err := mem.ReadU(at, 1)
			if err != nil {
				return nil, err
			}
			return value.Char{R: rune(u)}, nil
		}
		n, err := mem.ReadI(at, 1)
		if err != nil {
			return nil, err
		}
		return value.NewInt(n), nil
	case stype.PChar16:
		if asChar(true) {
			u, err := mem.ReadU(at, 2)
			if err != nil {
				return nil, err
			}
			return value.Char{R: rune(u)}, nil
		}
		u, err := mem.ReadU(at, 2)
		if err != nil {
			return nil, err
		}
		return value.NewInt(int64(u)), nil
	case stype.PI8, stype.PI16, stype.PI32, stype.PI64:
		if asChar(false) {
			size, _ := cmem.PrimSize(t.Prim)
			u, err := mem.ReadU(at, size)
			if err != nil {
				return nil, err
			}
			return value.Char{R: rune(u)}, nil
		}
		size, _ := cmem.PrimSize(t.Prim)
		n, err := mem.ReadI(at, size)
		if err != nil {
			return nil, err
		}
		return value.NewInt(n), nil
	case stype.PU8, stype.PU16, stype.PU32, stype.PU64:
		if asChar(false) {
			size, _ := cmem.PrimSize(t.Prim)
			u, err := mem.ReadU(at, size)
			if err != nil {
				return nil, err
			}
			return value.Char{R: rune(u)}, nil
		}
		size, _ := cmem.PrimSize(t.Prim)
		u, err := mem.ReadU(at, size)
		if err != nil {
			return nil, err
		}
		return value.Int{V: new(big.Int).SetUint64(u)}, nil
	default:
		return nil, fmt.Errorf("bind: cannot read primitive %s", t.Prim)
	}
}

func (c *C) readPointer(t *stype.Type, mem *cmem.Arena, at cmem.Addr, arrayLen, depth int) (value.Value, error) {
	target, err := mem.ReadPtr(at, c.lay.Model())
	if err != nil {
		return nil, err
	}
	ann := t.Ann
	switch {
	case ann.FixedLen > 0:
		return c.readElems(t.ElemType, mem, target, ann.FixedLen, depth, false)
	case ann.LengthFrom != "":
		if arrayLen < 0 {
			return nil, fmt.Errorf("bind: runtime length for pointer-array not supplied")
		}
		return c.readElems(t.ElemType, mem, target, arrayLen, depth, true)
	case ann.NonNull:
		if target == cmem.Null {
			return nil, fmt.Errorf("bind: NULL in pointer annotated nonnull")
		}
		return c.read(t.ElemType, mem, target, -1, depth+1)
	default:
		if target == cmem.Null {
			return value.Null(), nil
		}
		inner, err := c.read(t.ElemType, mem, target, -1, depth+1)
		if err != nil {
			return nil, err
		}
		return value.Some(inner), nil
	}
}

// readElems reads n contiguous elements starting at base; asList selects
// the recursive list encoding (indefinite arrays) over a Record (fixed).
func (c *C) readElems(elem *stype.Type, mem *cmem.Arena, base cmem.Addr, n int, depth int, asList bool) (value.Value, error) {
	if base == cmem.Null && n > 0 {
		return nil, fmt.Errorf("bind: NULL array of %d elements", n)
	}
	lay, err := c.lay.Of(elem)
	if err != nil {
		return nil, err
	}
	out := make([]value.Value, n)
	for i := 0; i < n; i++ {
		v, err := c.read(elem, mem, base+cmem.Addr(i*lay.Size), -1, depth+1)
		if err != nil {
			return nil, fmt.Errorf("element %d: %w", i, err)
		}
		out[i] = v
	}
	if asList {
		return value.FromSlice(out), nil
	}
	return value.Record{Fields: out}, nil
}

func (c *C) readArray(t *stype.Type, mem *cmem.Arena, at cmem.Addr, arrayLen, depth int) (value.Value, error) {
	length := t.Len
	if t.Ann.FixedLen > 0 {
		length = t.Ann.FixedLen
	}
	if length >= 0 && t.Ann.LengthFrom == "" {
		return c.readElems(t.ElemType, mem, at, length, depth, false)
	}
	if arrayLen < 0 {
		return nil, fmt.Errorf("bind: runtime length for indefinite array not supplied")
	}
	return c.readElems(t.ElemType, mem, at, arrayLen, depth, true)
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
	switch t.Kind {
	case stype.KPrim:
		return c.writePrim(t, mem, at, v)
	case stype.KEnum:
		iv, ok := v.(value.Int)
		if !ok {
			return fmt.Errorf("bind: enum wants integer, got %T", v)
		}
		n, err := iv.Int64()
		if err != nil {
			return err
		}
		return mem.WriteU(at, 4, uint64(n))
	case stype.KNamed:
		target := t.Target
		if target == nil {
			target = c.u.Lookup(t.Name)
		}
		if target == nil {
			return fmt.Errorf("bind: unresolved type %q", t.Name)
		}
		overlaid := *target.Type
		overlaid.Ann = target.Type.Ann.Merge(t.Ann)
		return c.write(&overlaid, mem, at, v, depth+1)
	case stype.KStruct:
		lay, err := c.lay.Of(t)
		if err != nil {
			return err
		}
		rec, ok := v.(value.Record)
		if !ok {
			return fmt.Errorf("bind: struct wants record, got %T", v)
		}
		vi := 0
		for i, f := range t.Fields {
			if f.Type.Ann.Ignore {
				continue
			}
			if vi >= len(rec.Fields) {
				return fmt.Errorf("bind: record too short for struct %s", t.Name)
			}
			if err := c.write(f.Type, mem, at+cmem.Addr(lay.Offsets[i]), rec.Fields[vi], depth+1); err != nil {
				return fmt.Errorf("field %s: %w", f.Name, err)
			}
			vi++
		}
		if vi != len(rec.Fields) {
			return fmt.Errorf("bind: record has %d extra fields for struct %s", len(rec.Fields)-vi, t.Name)
		}
		return nil
	case stype.KUnion:
		return fmt.Errorf("bind: cannot write C union %s", t.Name)
	case stype.KPointer:
		return c.writePointer(t, mem, at, v, depth)
	case stype.KArray:
		return c.writeArray(t, mem, at, v, depth)
	default:
		return fmt.Errorf("bind: cannot write C %s", t.Kind)
	}
}

func (c *C) writePrim(t *stype.Type, mem *cmem.Arena, at cmem.Addr, v value.Value) error {
	switch t.Prim {
	case stype.PVoid:
		return nil
	case stype.PF32:
		rv, ok := v.(value.Real)
		if !ok {
			return fmt.Errorf("bind: float wants real, got %T", v)
		}
		return mem.WriteF32(at, float32(rv.V))
	case stype.PF64:
		rv, ok := v.(value.Real)
		if !ok {
			return fmt.Errorf("bind: double wants real, got %T", v)
		}
		return mem.WriteF64(at, rv.V)
	default:
		size, err := cmem.PrimSize(t.Prim)
		if err != nil {
			return err
		}
		switch pv := v.(type) {
		case value.Int:
			if pv.V == nil {
				return fmt.Errorf("bind: nil integer")
			}
			var u uint64
			if pv.V.Sign() < 0 {
				u = uint64(pv.V.Int64())
			} else {
				u = pv.V.Uint64()
			}
			return mem.WriteU(at, size, u)
		case value.Char:
			return mem.WriteU(at, size, uint64(pv.R))
		default:
			return fmt.Errorf("bind: %s wants integer or char, got %T", t.Prim, v)
		}
	}
}

func (c *C) writePointer(t *stype.Type, mem *cmem.Arena, at cmem.Addr, v value.Value, depth int) error {
	ann := t.Ann
	elemLay, err := c.lay.Of(t.ElemType)
	if err != nil {
		return err
	}
	switch {
	case ann.FixedLen > 0:
		rec, ok := v.(value.Record)
		if !ok || len(rec.Fields) != ann.FixedLen {
			return fmt.Errorf("bind: fixed array pointer wants %d-field record, got %s", ann.FixedLen, v)
		}
		base := mem.Alloc(elemLay.Size*ann.FixedLen, elemLay.Align)
		for i, f := range rec.Fields {
			if err := c.write(t.ElemType, mem, base+cmem.Addr(i*elemLay.Size), f, depth+1); err != nil {
				return err
			}
		}
		return mem.WritePtr(at, c.lay.Model(), base)
	case ann.LengthFrom != "":
		elems, err := value.ToSlice(v)
		if err != nil {
			return err
		}
		base := cmem.Null
		if len(elems) > 0 {
			base = mem.Alloc(elemLay.Size*len(elems), elemLay.Align)
		}
		for i, e := range elems {
			if err := c.write(t.ElemType, mem, base+cmem.Addr(i*elemLay.Size), e, depth+1); err != nil {
				return err
			}
		}
		return mem.WritePtr(at, c.lay.Model(), base)
	case ann.NonNull:
		base := mem.Alloc(elemLay.Size, elemLay.Align)
		if err := c.write(t.ElemType, mem, base, v, depth+1); err != nil {
			return err
		}
		return mem.WritePtr(at, c.lay.Model(), base)
	default:
		cv, ok := v.(value.Choice)
		if !ok {
			return fmt.Errorf("bind: nullable pointer wants choice, got %T", v)
		}
		if cv.Alt == 0 {
			return mem.WritePtr(at, c.lay.Model(), cmem.Null)
		}
		base := mem.Alloc(elemLay.Size, elemLay.Align)
		if err := c.write(t.ElemType, mem, base, cv.V, depth+1); err != nil {
			return err
		}
		return mem.WritePtr(at, c.lay.Model(), base)
	}
}

func (c *C) writeArray(t *stype.Type, mem *cmem.Arena, at cmem.Addr, v value.Value, depth int) error {
	elemLay, err := c.lay.Of(t.ElemType)
	if err != nil {
		return err
	}
	length := t.Len
	if t.Ann.FixedLen > 0 {
		length = t.Ann.FixedLen
	}
	if length >= 0 && t.Ann.LengthFrom == "" {
		rec, ok := v.(value.Record)
		if !ok || len(rec.Fields) != length {
			return fmt.Errorf("bind: array[%d] wants %d-field record, got %s", length, length, v)
		}
		for i, f := range rec.Fields {
			if err := c.write(t.ElemType, mem, at+cmem.Addr(i*elemLay.Size), f, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("bind: cannot write indefinite array in place (use a pointer parameter)")
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
	outAddrs := make(map[string]cmem.Addr)
	for i, p := range fn.Params {
		role := sig.Roles[p.Name]
		switch role {
		case lower.RoleLength:
			args[i] = uint64(listLens[p.Name])
		case lower.RoleIn, lower.RoleInOut:
			w, addr, err := c.argWord(p.Type, mem, inVals[p.Name])
			if err != nil {
				return nil, fmt.Errorf("bind: parameter %s: %w", p.Name, err)
			}
			args[i] = w
			if role == lower.RoleInOut {
				outAddrs[p.Name] = addr
			}
		case lower.RoleOut:
			if p.Type.Kind != stype.KPointer {
				return nil, fmt.Errorf("bind: out parameter %s must be a pointer", p.Name)
			}
			lay, err := c.lay.Of(p.Type.ElemType)
			if err != nil {
				return nil, err
			}
			buf := mem.Alloc(lay.Size, lay.Align)
			args[i] = uint64(buf)
			outAddrs[p.Name] = buf
		}
	}

	ret, err := impl(mem, args)
	if err != nil {
		return nil, fmt.Errorf("bind: %s: %w", decl.Name, err)
	}

	// Collect outputs: out/inout parameters in order, then the return.
	var outs []value.Value
	for _, p := range fn.Params {
		role := sig.Roles[p.Name]
		if role != lower.RoleOut && role != lower.RoleInOut {
			continue
		}
		v, err := c.read(p.Type.ElemType, mem, outAddrs[p.Name], -1, 0)
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

// argWord turns an input value into a call argument word, allocating
// arena storage for aggregates. For pointer/array parameters the returned
// address is the passed buffer (for inout reads back).
func (c *C) argWord(t *stype.Type, mem *cmem.Arena, v value.Value) (uint64, cmem.Addr, error) {
	switch t.Kind {
	case stype.KPrim:
		switch t.Prim {
		case stype.PF32:
			rv, ok := v.(value.Real)
			if !ok {
				return 0, 0, fmt.Errorf("float wants real, got %T", v)
			}
			return RetF32(float32(rv.V)), 0, nil
		case stype.PF64:
			rv, ok := v.(value.Real)
			if !ok {
				return 0, 0, fmt.Errorf("double wants real, got %T", v)
			}
			return RetF64(rv.V), 0, nil
		default:
			switch pv := v.(type) {
			case value.Int:
				n, err := pv.Int64()
				if err != nil {
					// Large unsigned values still fit in the word.
					if pv.V != nil && pv.V.Sign() >= 0 && pv.V.IsUint64() {
						return pv.V.Uint64(), 0, nil
					}
					return 0, 0, err
				}
				return uint64(n), 0, nil
			case value.Char:
				return uint64(pv.R), 0, nil
			default:
				return 0, 0, fmt.Errorf("scalar wants integer or char, got %T", v)
			}
		}
	case stype.KEnum:
		pv, ok := v.(value.Int)
		if !ok {
			return 0, 0, fmt.Errorf("enum wants integer, got %T", v)
		}
		n, err := pv.Int64()
		if err != nil {
			return 0, 0, err
		}
		return uint64(n), 0, nil
	case stype.KNamed:
		target := t.Target
		if target == nil {
			target = c.u.Lookup(t.Name)
		}
		if target == nil {
			return 0, 0, fmt.Errorf("unresolved type %q", t.Name)
		}
		overlaid := *target.Type
		overlaid.Ann = target.Type.Ann.Merge(t.Ann)
		return c.argWord(&overlaid, mem, v)
	case stype.KPointer, stype.KArray:
		// Write through a temporary pointer slot: the argument is the
		// address the pointer slot ends up holding. Arrays decay to a
		// pointer to their first element.
		pt := t
		if t.Kind == stype.KArray {
			pt = &stype.Type{Kind: stype.KPointer, ElemType: t.ElemType, Ann: t.Ann}
			if t.Len > 0 && pt.Ann.FixedLen == 0 && pt.Ann.LengthFrom == "" {
				pt.Ann.FixedLen = t.Len
			}
		}
		slot := mem.Alloc(c.lay.Model().PointerSize(), c.lay.Model().PointerSize())
		if err := c.writePointer(pt, mem, slot, v, 0); err != nil {
			return 0, 0, err
		}
		target, err := mem.ReadPtr(slot, c.lay.Model())
		if err != nil {
			return 0, 0, err
		}
		return uint64(target), target, nil
	default:
		return 0, 0, fmt.Errorf("cannot pass %s by value", t.Kind)
	}
}

// retValue decodes a return word.
func (c *C) retValue(t *stype.Type, mem *cmem.Arena, w uint64) (value.Value, error) {
	switch t.Kind {
	case stype.KPrim:
		switch t.Prim {
		case stype.PVoid:
			return value.Unit{}, nil
		case stype.PF32:
			return value.Real{V: float64(ArgF32(w))}, nil
		case stype.PF64:
			return value.Real{V: ArgF64(w)}, nil
		case stype.PChar8, stype.PChar16:
			if t.Ann.AsChar == nil || *t.Ann.AsChar {
				return value.Char{R: rune(w)}, nil
			}
			return value.NewInt(int64(w)), nil
		case stype.PU8, stype.PU16, stype.PU32, stype.PU64:
			return value.Int{V: new(big.Int).SetUint64(w)}, nil
		default:
			size, err := cmem.PrimSize(t.Prim)
			if err != nil {
				return nil, err
			}
			shift := uint(64 - 8*size)
			return value.NewInt(int64(w<<shift) >> shift), nil
		}
	case stype.KEnum:
		return value.NewInt(int64(int32(w))), nil
	case stype.KNamed:
		target := t.Target
		if target == nil {
			target = c.u.Lookup(t.Name)
		}
		if target == nil {
			return nil, fmt.Errorf("unresolved type %q", t.Name)
		}
		overlaid := *target.Type
		overlaid.Ann = target.Type.Ann.Merge(t.Ann)
		return c.retValue(&overlaid, mem, w)
	case stype.KPointer:
		// Returned pointers are read through the pointer lowering: write
		// the word into a slot and read it back as a value.
		slot := mem.Alloc(c.lay.Model().PointerSize(), c.lay.Model().PointerSize())
		if err := mem.WritePtr(slot, c.lay.Model(), cmem.Addr(w)); err != nil {
			return nil, err
		}
		return c.readPointer(t, mem, slot, -1, 0)
	default:
		return nil, fmt.Errorf("cannot return %s by value", t.Kind)
	}
}
