// Package fuse is the specialized stub compiler: it fuses a coercion plan
// with the concrete representation bindings of both sides into a flat list
// of moves that carry data *directly* between a Java heap and C memory
// with no intermediate value trees. This is the execution model of the
// paper's generated JNI stubs — §4's coercion plan "incorporates …
// information related to the concrete representation of their values in
// memory" — and, like the prototype (§6), it supports the common
// constructs and reports anything else as unsupported, falling back to the
// general value-tree engines.
//
// A move pairs one leaf of the Java representation (a field chain from a
// slot of the Java frame) with one leaf of the C representation (a word of
// the C frame, or memory an offset/deref chain away from the address in
// that word), with both leaf kinds, the C width and its signedness. One
// pairing function builds every move from a plan record node and the two
// sides' leaves; one loop per direction runs them, whatever the parameter
// shape: a scalar argument or return word, a pointer-to-aggregate
// parameter, an out buffer, or a list element (a one-slot Java frame over
// a one-word C frame). Every check that does not need a value — leaf
// counts, the plan's permutation, kinds — runs at compile time.
//
// Supported: primitives, by-value classes/structs/fixed arrays (with
// associative flattening and commutative field permutation from the
// plan), non-null pointers, and ordered collections (Vector ↔
// length-from C arrays). Not supported: nullable pointers inside fused
// aggregates, unions, object references, and subtype injections.
package fuse

import (
	"fmt"
	"math"

	"repro/internal/cmem"
	"repro/internal/jheap"
	"repro/internal/lower"
	"repro/internal/stype"
)

// ErrUnsupported is wrapped by every "cannot fuse this construct" error;
// callers match it to fall back to the value-tree engines.
var ErrUnsupported = fmt.Errorf("fuse: construct not supported by the specialized stub compiler")

func unsupported(format string, args ...interface{}) error {
	return fmt.Errorf("%w: %s", ErrUnsupported, fmt.Sprintf(format, args...))
}

// leafKind classifies one side of a move.
type leafKind uint8

const (
	leafF32 leafKind = iota + 1
	leafF64
	leafInt  // integral (bool, enums, chars-as-ints)
	leafChar // character slot
	leafList // an ordered collection: Vector ↔ contiguous array + length word

	leafObject // Java only: a by-value object the reply allocates
	leafRegion // C only: backing memory the request allocates
)

// jLeaf is one leaf of the Java representation: the frame slot path[0],
// then a chain of object field loads down to the leaf's slot.
type jLeaf struct {
	path []int
	kind leafKind
	// elem is a leafList's element use; class and size name a leafObject
	// and count its fields.
	elem  *stype.Type
	class string
	size  int
}

// cLeaf is one leaf of the C representation, located from word `word` of
// the C frame: with no hops the value is that word itself (an argument or
// the return word); otherwise the word holds an address and the hops lead
// from it to the leaf in memory.
type cLeaf struct {
	word     int
	hops     []cHop
	kind     leafKind
	size     int  // bytes of the scalar, of a leafRegion, of one leafList element
	align    int  // of a leafRegion, of a leafList element
	unsigned bool // zero-extend when loading (unsigned, bool, characters)
	// elem is a leafList's element type and lenWord the frame word that
	// carries its length.
	elem    *stype.Type
	lenWord int
}

// cHop is one step of a C location: add off to the address and, unless
// this is the last hop, load the non-null pointer stored there. A run
// toward C allocates the pointee (size, align) of a pointer still NULL.
type cHop struct{ off, size, align int }

// move is one entry of a fused stub: a Java leaf, a C leaf, and for a list
// the moves of one element.
type move struct {
	j    jLeaf
	c    cLeaf
	elem []move
}

// compiler resolves leaves of both declarations.
type compiler struct {
	jU, cU *stype.Universe
	lay    *cmem.Layouts
}

// resolveNamed follows a Named node to its target with annotations
// overlaid, for typedef-like targets.
func resolveNamed(u *stype.Universe, t *stype.Type) (*stype.Type, *stype.Decl, error) {
	if t.Kind != stype.KNamed {
		return t, nil, nil
	}
	d := t.Target
	if d == nil {
		d = u.Lookup(t.Name)
	}
	if d == nil {
		return nil, nil, fmt.Errorf("fuse: unresolved name %q", t.Name)
	}
	switch d.Type.Kind {
	case stype.KClass, stype.KInterface, stype.KStruct, stype.KUnion:
		return t, d, nil
	default:
		overlaid := *d.Type
		overlaid.Ann = d.Type.Ann.Merge(t.Ann)
		return resolveNamed(u, &overlaid)
	}
}

// primKind classifies a primitive of either language.
func primKind(t *stype.Type) leafKind {
	switch {
	case t.Prim == stype.PF32:
		return leafF32
	case t.Prim == stype.PF64:
		return leafF64
	case t.Ann.Range != nil:
		return leafInt
	case t.Ann.AsChar != nil && !*t.Ann.AsChar:
		return leafInt
	case t.Ann.AsChar != nil, t.Prim == stype.PChar8, t.Prim == stype.PChar16:
		return leafChar
	}
	return leafInt
}

// jLeaves enumerates the Java-side leaves of a type in the exact order
// lower flattens its Mtype record structure, each path starting with
// prefix. Only containment shapes are fusible. With objs set the walk is
// over a result the reply constructs: every by-value object on the way is
// appended to objs, outermost first.
func (cp *compiler) jLeaves(t *stype.Type, prefix []int, objs *[]move) ([]jLeaf, error) {
	t, decl, err := resolveNamed(cp.jU, t)
	if err != nil {
		return nil, err
	}
	path := append([]int(nil), prefix...)
	switch {
	case t.Kind == stype.KPrim && t.Prim == stype.PVoid:
		return nil, nil
	case t.Kind == stype.KPrim:
		return []jLeaf{{path: path, kind: primKind(t)}}, nil
	case t.Kind != stype.KNamed:
		return nil, unsupported("java %s inside a fused aggregate", t.Kind)
	case lower.IsCollection(cp.jU, decl):
		if len(prefix) != 1 || objs != nil {
			return nil, unsupported("collection %s is not a top-level input parameter", decl.Name)
		}
		ann := decl.Type.Ann.Merge(t.Ann)
		elem := stype.NewNamed(lower.CollectionElement(cp.jU, decl, ann))
		elem.Ann.NonNull = ann.ElementNonNull
		return []jLeaf{{path: path, kind: leafList, elem: elem}}, nil
	case !t.Ann.NonNull:
		return nil, unsupported("nullable reference to %s inside a fused aggregate", decl.Name)
	case !lower.ByValueOf(decl, t.Ann):
		return nil, unsupported("object reference %s inside a fused aggregate", decl.Name)
	}
	if objs != nil {
		*objs = append(*objs, move{j: jLeaf{path: path, kind: leafObject, class: decl.Name, size: len(decl.Type.Fields)}})
	}
	var out []jLeaf
	for i, f := range decl.Type.Fields {
		if f.Type.Ann.Ignore {
			continue
		}
		leaves, err := cp.jLeaves(f.Type, append(path, i), objs)
		if err != nil {
			return nil, fmt.Errorf("%s.%s: %w", decl.Name, f.Name, err)
		}
		out = append(out, leaves...)
	}
	return out, nil
}

// plus returns the location off bytes past l.
func (l cLeaf) plus(off int) cLeaf {
	l.hops = append([]cHop(nil), l.hops...)
	l.hops[len(l.hops)-1].off += off
	return l
}

// cLeaves enumerates the C-side leaves of a type in lowering order. at
// locates the value: a bare frame word for a scalar carried in it, a word
// plus one hop for memory the word points to.
func (cp *compiler) cLeaves(t *stype.Type, at cLeaf) ([]cLeaf, error) {
	t, decl, err := resolveNamed(cp.cU, t)
	if err != nil {
		return nil, err
	}
	if decl != nil {
		t = decl.Type
	}
	switch {
	case t.Kind == stype.KPrim && t.Prim == stype.PVoid:
		return nil, nil
	case t.Kind == stype.KPrim:
		at.kind = primKind(t)
		at.size, err = cmem.PrimSize(t.Prim)
		switch t.Prim {
		case stype.PBool, stype.PU8, stype.PU16, stype.PU32, stype.PU64, stype.PChar16:
			at.unsigned = true
		default:
			at.unsigned = at.kind == leafChar
		}
		return []cLeaf{at}, err
	case t.Kind == stype.KEnum:
		at.kind, at.size = leafInt, 4
		return []cLeaf{at}, nil
	case t.Kind == stype.KPointer && !t.Ann.NonNull:
		return nil, unsupported("nullable C pointer")
	case len(at.hops) == 0:
		return nil, unsupported("C %s passed or returned by value", t.Kind)
	}
	var elems []*stype.Type // the members of an aggregate, each at offs[i]
	var offs []int
	switch t.Kind {
	case stype.KPointer:
		lay, err := cp.lay.Of(t.ElemType)
		if err != nil {
			return nil, err
		}
		at = at.plus(0) // a copy of the hops to extend
		at.hops[len(at.hops)-1].size, at.hops[len(at.hops)-1].align = lay.Size, lay.Align
		at.hops = append(at.hops, cHop{})
		return cp.cLeaves(t.ElemType, at)
	case stype.KStruct:
		lay, err := cp.lay.Of(t)
		if err != nil {
			return nil, err
		}
		for i, f := range t.Fields {
			if !f.Type.Ann.Ignore {
				elems, offs = append(elems, f.Type), append(offs, lay.Offsets[i])
			}
		}
	case stype.KArray:
		n := t.Len
		if t.Ann.FixedLen > 0 {
			n = t.Ann.FixedLen
		}
		lay, err := cp.lay.Of(t.ElemType)
		if err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			elems, offs = append(elems, t.ElemType), append(offs, i*lay.Size)
		}
	default:
		return nil, unsupported("C %s inside a fused aggregate", t.Kind)
	}
	var out []cLeaf
	for i, e := range elems {
		leaves, err := cp.cLeaves(e, at.plus(offs[i]))
		if err != nil {
			return nil, err
		}
		out = append(out, leaves...)
	}
	return out, nil
}

// compatible reports whether a Java leaf kind and a C leaf kind can be the
// two ends of one move.
func compatible(j, c leafKind) bool {
	switch j {
	case leafF32, leafF64:
		return c == leafF32 || c == leafF64
	case leafInt, leafChar:
		return c == leafInt || c == leafChar
	}
	return j == c
}

// toWord encodes a Java slot as the 64-bit word of a C leaf of kind k;
// memory leaves store its low bytes, argument words carry all of it.
func toWord(s jheap.Slot, k leafKind) uint64 {
	switch {
	case k == leafF32:
		return uint64(math.Float32bits(float32(s.F)))
	case k == leafF64:
		return math.Float64bits(s.F)
	case s.Kind == jheap.SlotChar:
		return uint64(s.C)
	}
	return uint64(s.I)
}

// fromWord decodes a C leaf from the low c.size bytes of w — loaded from
// memory or found in the return word — into a Java slot of kind jk.
func fromWord(w uint64, c *cLeaf, jk leafKind) jheap.Slot {
	switch c.kind {
	case leafF32:
		return jheap.FloatSlot(float64(math.Float32frombits(uint32(w))))
	case leafF64:
		return jheap.FloatSlot(math.Float64frombits(w))
	}
	shift := uint(64 - 8*c.size)
	n := int64(w<<shift) >> shift
	if c.unsigned {
		n = int64(w << shift >> shift)
	}
	if jk == leafChar {
		return jheap.CharSlot(rune(n))
	}
	return jheap.IntSlot(n)
}

// walk follows a Java path from its frame slot through object fields.
func walk(h *jheap.Heap, frame []jheap.Slot, path []int) (jheap.Slot, error) {
	if path[0] >= len(frame) {
		return jheap.Slot{}, fmt.Errorf("fuse: argument %d missing", path[0])
	}
	s := frame[path[0]]
	for _, idx := range path[1:] {
		if s.Kind != jheap.SlotRef {
			return jheap.Slot{}, fmt.Errorf("fuse: expected reference while navigating")
		}
		if s.R == jheap.NullRef {
			return jheap.Slot{}, fmt.Errorf("fuse: null in fused non-null path")
		}
		var err error
		if s, err = h.Field(s.R, idx); err != nil {
			return jheap.Slot{}, err
		}
	}
	return s, nil
}

// locate applies a memory leaf's hops to the address in its frame word.
func locate(mem *cmem.Arena, model cmem.Model, words []uint64, c *cLeaf, alloc bool) (cmem.Addr, error) {
	at := cmem.Addr(words[c.word])
	for i, hop := range c.hops {
		at += cmem.Addr(hop.off)
		if i == len(c.hops)-1 {
			break
		}
		target, err := mem.ReadPtr(at, model)
		if err != nil {
			return 0, err
		}
		if target == cmem.Null {
			if !alloc {
				return 0, fmt.Errorf("fuse: NULL in fused non-null pointer")
			}
			target = mem.Alloc(hop.size, hop.align)
			if err := mem.WritePtr(at, model, target); err != nil {
				return 0, err
			}
		}
		at = target
	}
	return at, nil
}

// toC runs moves from the Java frame into the C frame and memory.
func (c *Call) toC(h *jheap.Heap, frame []jheap.Slot, mem *cmem.Arena, words []uint64, moves []move) error {
	for i := range moves {
		mv := &moves[i]
		if mv.c.kind == leafRegion {
			words[mv.c.word] = uint64(mem.Alloc(mv.c.size, mv.c.align))
			continue
		}
		s, err := walk(h, frame, mv.j.path)
		if err != nil {
			return err
		}
		switch {
		case mv.c.kind == leafList:
			err = c.listToC(h, s, mem, words, mv)
		case mv.c.hops == nil:
			words[mv.c.word] = toWord(s, mv.c.kind)
		default:
			at, lerr := locate(mem, c.model, words, &mv.c, true)
			if lerr != nil {
				return lerr
			}
			err = mem.WriteU(at, mv.c.size, toWord(s, mv.c.kind))
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// listToC lays a Vector out as a contiguous C array: each element is a
// one-slot Java frame over a one-word C frame holding its address.
func (c *Call) listToC(h *jheap.Heap, s jheap.Slot, mem *cmem.Arena, words []uint64, mv *move) error {
	if s.Kind != jheap.SlotRef || s.R == jheap.NullRef {
		return fmt.Errorf("fuse: collection argument is null")
	}
	n, err := h.VectorLen(s.R)
	if err != nil {
		return err
	}
	base := cmem.Null
	if n > 0 {
		base = mem.Alloc(n*mv.c.size, mv.c.align)
	}
	var elem [1]jheap.Slot
	var at [1]uint64
	for i := 0; i < n; i++ {
		er, err := h.VectorAt(s.R, i)
		if err != nil {
			return err
		}
		if er == jheap.NullRef {
			return fmt.Errorf("fuse: null element %d", i)
		}
		elem[0], at[0] = jheap.RefSlot(er), uint64(base)+uint64(i*mv.c.size)
		if err := c.toC(h, elem[:], mem, at[:], mv.elem); err != nil {
			return fmt.Errorf("element %d: %w", i, err)
		}
	}
	words[mv.c.word], words[mv.c.lenWord] = uint64(base), uint64(n)
	return nil
}

// toJ runs moves from the C frame and memory into the Java frame,
// allocating the result's objects as it reaches them.
func (c *Call) toJ(h *jheap.Heap, frame []jheap.Slot, mem *cmem.Arena, words []uint64, moves []move) error {
	for i := range moves {
		mv := &moves[i]
		var s jheap.Slot
		switch {
		case mv.j.kind == leafObject:
			s = jheap.RefSlot(h.New(mv.j.class, mv.j.size))
		case mv.c.hops == nil:
			s = fromWord(words[mv.c.word], &mv.c, mv.j.kind)
		default:
			at, err := locate(mem, c.model, words, &mv.c, false)
			if err != nil {
				return err
			}
			w, err := mem.ReadU(at, mv.c.size)
			if err != nil {
				return err
			}
			s = fromWord(w, &mv.c, mv.j.kind)
		}
		last := len(mv.j.path) - 1
		if last == 0 {
			frame[mv.j.path[0]] = s
			continue
		}
		owner, err := walk(h, frame, mv.j.path[:last])
		if err != nil {
			return err
		}
		if err := h.SetField(owner.R, mv.j.path[last], s); err != nil {
			return err
		}
	}
	return nil
}
