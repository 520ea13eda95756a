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
// A move pairs one leaf of the Java representation with one leaf of the C
// representation, with both leaf kinds, the C width and its signedness.
// Its Java end is (owner, field), a slot of an object; its C end is
// (base, offset), bytes of a memory block, or a word of the C frame.
// Owners and bases are registers of the call, numbered when the stub is
// compiled, and the moves that fill them are entries of the same list,
// each ahead of the moves under it. An owner move resolves a reference
// once — a reference, not null, not dangling, to an object with every
// field the declaration reads — and a base move resolves an address once
// — not NULL (toward C: allocated), the arena covering the block — so a
// leaf move is fields[f] ↔ window[off:] with a slot-kind check and
// nothing else. One pairing function builds the leaves from a plan record
// node and one loop per direction runs the list, whatever the parameter
// shape: a scalar argument or return word, a pointer-to-aggregate
// parameter, an out buffer, or a list element (a program of its own:
// its owner the element, its base a slice of the array's window). Every
// check that needs no value — leaf counts, the plan's permutation,
// kinds, spans — runs at compile time.
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

// leafKind classifies one side of a move, and the move itself.
type leafKind uint8

const (
	leafF32 leafKind = iota + 1
	leafF64
	leafInt  // integral (bool, enums, chars-as-ints)
	leafChar // character slot
	leafList // an ordered collection: Vector ↔ contiguous array + length word

	leafObject // Java only: a by-value object, an owner register
	leafRegion // C only: a memory block behind a pointer, a base register
)

// jLeaf is one leaf of the Java representation: field `field` of the
// object in owner register owner.
type jLeaf struct {
	kind leafKind
	// want is the slot kind a scalar's declaration calls for; 0 takes an
	// integral or a character slot, as bind.J does for a char read as int.
	want         jheap.SlotKind
	owner, field int
	// elem is a leafList's element use; class and size name a leafObject
	// and count its fields.
	elem  *stype.Type
	class string
	size  int
}

// cLeaf is one leaf of the C representation: off bytes into the block in
// base register base, or for inWord word off of the C frame (an argument
// or the return word). word is the C parameter the leaf belongs to.
type cLeaf struct {
	kind      leafKind
	unsigned  bool // zero-extend when loading (unsigned, bool, characters)
	size      int  // bytes of the scalar, of a leafRegion, of one leafList element
	align     int  // of a leafRegion, of a leafList element
	base, off int
	word      int
	// elem is a leafList's element type and lenWord the frame word that
	// carries its length.
	elem    *stype.Type
	lenWord int
}

// inWord is the base of a C end that is a word of the C frame.
const inWord = -1

// move is one entry of a fused stub. With op 0 it carries a scalar from
// one leaf to the other; a leafList lays a Vector out with the program of
// one element; a leafObject resolves (toward Java: allocates) the object
// in its Java end as owner register self, checking that it has span
// fields; a leafRegion resolves (toward C: allocates) the block its C end
// points to as base register self.
type move struct {
	op         leafKind
	j          jLeaf
	c          cLeaf
	self, span int
	elem       *program
}

// program is the moves of one list element and the registers the list
// fills for them: owner register frame with the element's fields, of which
// the moves reach args, and base register window with its bytes.
type program struct {
	moves               []move
	frame, args, window int
}

// compiler resolves leaves of both declarations and numbers the owner
// and base registers of the call.
type compiler struct {
	jU, cU       *stype.Universe
	lay          *cmem.Layouts
	nObjs, nWins int
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

// jLeaves enumerates the Java-side leaves of the value in a field of an
// owner, in the exact order lower flattens its Mtype record structure.
// Every by-value object on the way becomes an owner register: its move
// goes to objs, ahead of what the object holds. Only containment shapes
// are fusible; top marks an input parameter, where a collection may stand.
func (cp *compiler) jLeaves(t *stype.Type, owner, field int, top bool, objs *[]move) ([]jLeaf, error) {
	t, decl, err := resolveNamed(cp.jU, t)
	if err != nil {
		return nil, err
	}
	at := jLeaf{owner: owner, field: field, want: jheap.SlotInt}
	switch {
	case t.Kind == stype.KPrim && t.Prim == stype.PVoid:
		return nil, nil
	case t.Kind == stype.KPrim:
		at.kind = primKind(t)
		switch char := t.Prim == stype.PChar8 || t.Prim == stype.PChar16; {
		case at.kind == leafF32 || at.kind == leafF64:
			at.want = jheap.SlotFloat
		case char != (at.kind == leafChar):
			at.want = 0
		case char:
			at.want = jheap.SlotChar
		}
		return []jLeaf{at}, nil
	case t.Kind != stype.KNamed:
		return nil, unsupported("java %s inside a fused aggregate", t.Kind)
	case lower.IsCollection(cp.jU, decl):
		if !top {
			return nil, unsupported("collection %s is not a top-level input parameter", decl.Name)
		}
		ann := decl.Type.Ann.Merge(t.Ann)
		at.kind, at.elem = leafList, stype.NewNamed(lower.CollectionElement(cp.jU, decl, ann))
		at.elem.Ann.NonNull = ann.ElementNonNull
		return []jLeaf{at}, nil
	case !t.Ann.NonNull:
		return nil, unsupported("nullable reference to %s inside a fused aggregate", decl.Name)
	case !lower.ByValueOf(decl, t.Ann):
		return nil, unsupported("object reference %s inside a fused aggregate", decl.Name)
	}
	at.kind, at.class, at.size = leafObject, decl.Name, len(decl.Type.Fields)
	self, obj := cp.nObjs, len(*objs)
	cp.nObjs++
	*objs = append(*objs, move{op: leafObject, j: at, self: self})
	var out []jLeaf
	for i, f := range decl.Type.Fields {
		if f.Type.Ann.Ignore {
			continue
		}
		leaves, err := cp.jLeaves(f.Type, self, i, false, objs)
		if err != nil {
			return nil, fmt.Errorf("%s.%s: %w", decl.Name, f.Name, err)
		}
		out, (*objs)[obj].span = append(out, leaves...), i+1
	}
	return out, nil
}

// behind makes the block of type t that the pointer at `at` points to a
// base register — its move goes to bases, ahead of what lies in the block
// — and returns the block's leaves.
func (cp *compiler) behind(t *stype.Type, at cLeaf, bases *[]move) ([]cLeaf, error) {
	lay, err := cp.lay.Of(t)
	if err != nil {
		return nil, err
	}
	at.kind, at.size, at.align = leafRegion, lay.Size, lay.Align
	*bases = append(*bases, move{op: leafRegion, c: at, self: cp.nWins})
	cp.nWins++
	return cp.cLeaves(t, cLeaf{base: cp.nWins - 1, word: at.word}, bases)
}

// cLeaves enumerates the C-side leaves of a type in lowering order. at
// locates the value: a frame word for a scalar carried in it, else an
// offset into a block.
func (cp *compiler) cLeaves(t *stype.Type, at cLeaf, bases *[]move) ([]cLeaf, error) {
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
	case at.base == inWord:
		return nil, unsupported("C %s passed or returned by value", t.Kind)
	}
	var elems []*stype.Type // the members of an aggregate, each at offs[i]
	var offs []int
	switch t.Kind {
	case stype.KPointer:
		return cp.behind(t.ElemType, at, bases)
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
		sub := at
		sub.off += offs[i]
		leaves, err := cp.cLeaves(e, sub, bases)
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
func toWord(s *jheap.Slot, k leafKind) uint64 {
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

// frame is what one Invoke runs over: the two memories, the C frame and
// the width of a C pointer.
type frame struct {
	h     *jheap.Heap
	mem   *cmem.Arena
	words []uint64
	ptr   int
}

// reg is owner register i and base register i of a call: the fields of an
// object a move has resolved, the window of a memory block one has. The
// table is no part of the frame so that Invoke can keep it on its stack.
type reg struct {
	obj []jheap.Slot
	win []byte
}

// put stores the low size bytes of w at a C end, get loads them.
func (fr *frame) put(regs []reg, c *cLeaf, size int, w uint64) {
	if c.base == inWord {
		fr.words[c.off] = w
	} else {
		cmem.PutU(regs[c.base].win[c.off:], size, w)
	}
}

func (fr *frame) get(regs []reg, c *cLeaf, size int) uint64 {
	if c.base == inWord {
		return fr.words[c.off]
	}
	w, _ := cmem.GetU(regs[c.base].win[c.off:], size)
	return w
}

// object resolves a reference — not null, not dangling — to the fields of
// the object it names, need of them at least: once per owner, not per leaf.
func object(h *jheap.Heap, r jheap.Ref, need int) ([]jheap.Slot, error) {
	fields, err := h.Fields(r)
	if err == nil && len(fields) < need {
		err = fmt.Errorf("fuse: object has %d fields where the stub reads %d", len(fields), need)
	}
	return fields, err
}

// toC runs moves from the Java frame into the C frame and memory.
func (fr *frame) toC(regs []reg, moves []move) error {
	for i := range moves {
		mv := &moves[i]
		var err error
		if mv.op == leafRegion {
			at := fr.mem.Alloc(mv.c.size, mv.c.align)
			fr.put(regs, &mv.c, fr.ptr, uint64(at))
			regs[mv.self].win, err = fr.mem.Window(at, mv.c.size)
		} else {
			switch s := &regs[mv.j.owner].obj[mv.j.field]; {
			case mv.op == 0 && (mv.j.want == 0 || s.Kind == mv.j.want):
				fr.put(regs, &mv.c, mv.c.size, toWord(s, mv.c.kind))
			case mv.op == 0:
				err = fmt.Errorf("fuse: leaf wants slot kind %d, got %d", mv.j.want, s.Kind)
			case s.Kind != jheap.SlotRef:
				err = fmt.Errorf("fuse: expected reference while navigating")
			case mv.op == leafObject:
				regs[mv.self].obj, err = object(fr.h, s.R, mv.span)
			default:
				err = fr.listToC(regs, s.R, mv)
			}
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// listToC lays a Vector out as a contiguous C array: each element runs the
// element program, its fields the owner, its slice of the array the base.
func (fr *frame) listToC(regs []reg, vec jheap.Ref, mv *move) error {
	elems, err := fr.h.VectorElems(vec)
	if err != nil {
		return err
	}
	base, stride := cmem.Null, mv.c.size
	var array []byte
	if len(elems) > 0 {
		base = fr.mem.Alloc(len(elems)*stride, mv.c.align)
		if array, err = fr.mem.Window(base, len(elems)*stride); err != nil {
			return err
		}
	}
	for i, er := range elems {
		if regs[mv.elem.frame].obj, err = object(fr.h, er, mv.elem.args); err == nil {
			regs[mv.elem.window].win = array[i*stride : (i+1)*stride]
			err = fr.toC(regs, mv.elem.moves)
		}
		if err != nil {
			return fmt.Errorf("element %d: %w", i, err)
		}
	}
	fr.words[mv.c.off], fr.words[mv.c.lenWord] = uint64(base), uint64(len(elems))
	return nil
}

// toJ runs moves from the C frame and memory into the Java frame,
// allocating the result's objects as it reaches them.
func (fr *frame) toJ(regs []reg, moves []move) error {
	for i := range moves {
		mv := &moves[i]
		var err error
		switch mv.op {
		case leafRegion:
			regs[mv.self].win, err = fr.mem.Window(cmem.Addr(fr.get(regs, &mv.c, fr.ptr)), mv.c.size)
		case leafObject:
			r := fr.h.New(mv.j.class, mv.j.size)
			regs[mv.j.owner].obj[mv.j.field] = jheap.RefSlot(r)
			regs[mv.self].obj, err = fr.h.Fields(r)
		default:
			regs[mv.j.owner].obj[mv.j.field] = fromWord(fr.get(regs, &mv.c, mv.c.size), &mv.c, mv.j.kind)
		}
		if err != nil {
			return err
		}
	}
	return nil
}
