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
// its owner the element, its base a slice of the array's window; a flat
// one also a table of runs). Every check that needs no value — leaf
// counts, the plan's permutation, kinds, spans — runs at compile time.
//
// How a use is read — scalar kind, width and signedness, containment,
// nullability, what is a list — is lower's Shape, which the leaf
// enumerators consume; this package adds only where a leaf lies.
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
// the moves reach args, and base register window with its bytes; runs is
// the moves as a table fill runs with no registers, if tabulate made one.
type program struct {
	moves               []move
	frame, args, window int
	runs                []run
}

// run is a scalar move of a table: field field into the window at off,
// size bytes of C leaf kind conv, from a slot of kind want (as jLeaf's).
type run struct {
	field, off, size int
	want             jheap.SlotKind
	conv             leafKind
}

// tabulate tables the moves if each is a scalar from the element's own
// fields into its own window.
func (p *program) tabulate() {
	runs := make([]run, len(p.moves))
	for i, mv := range p.moves {
		if mv.op != 0 || mv.j.owner != p.frame || mv.c.base != p.window {
			return
		}
		runs[i] = run{field: mv.j.field, off: mv.c.off, size: mv.c.size, want: mv.j.want, conv: mv.c.kind}
	}
	p.runs = runs
}

// compiler resolves leaves of both declarations and numbers the owner
// and base registers of the call.
type compiler struct {
	jU, cU       *stype.Universe
	lay          *cmem.Layouts
	nObjs, nWins int
}

// scalarLeaf is the leaf kind of a scalar shape, 0 for any other.
func scalarLeaf(s *lower.Shape) leafKind {
	switch s.Kind {
	case lower.Real:
		if s.Bits == 32 {
			return leafF32
		}
		return leafF64
	case lower.Bool, lower.Integer, lower.Enum:
		return leafInt
	case lower.Character:
		return leafChar
	}
	return 0
}

// jLeaves enumerates the Java-side leaves of the value in a field of an
// owner, in the exact order lower flattens its Mtype record structure.
// Every by-value object on the way becomes an owner register: its move
// goes to objs, ahead of what the object holds. Only containment shapes
// are fusible; top marks an input parameter, where a collection may stand.
func (cp *compiler) jLeaves(t *stype.Type, owner, field int, top bool, objs *[]move) ([]jLeaf, error) {
	s, err := lower.ShapeOf(cp.jU, t)
	if err != nil {
		return nil, err
	}
	at := jLeaf{kind: scalarLeaf(&s), owner: owner, field: field}
	switch {
	case s.Kind == lower.Unit:
		return nil, nil
	case at.kind != 0 && s.Kind != lower.Enum:
		// The slot a primitive lives in follows what the language says it
		// holds; read as the other integral kind it takes either, as in
		// bind.J.
		switch {
		case s.Native == lower.Real:
			at.want = jheap.SlotFloat
		case s.Kind != s.Native && s.Native != lower.Bool:
		case s.Native == lower.Character:
			at.want = jheap.SlotChar
		default:
			at.want = jheap.SlotInt
		}
		return []jLeaf{at}, nil
	case s.Kind == lower.List && s.Decl != nil:
		if !top {
			return nil, unsupported("collection %s is not a top-level input parameter", s.Decl.Name)
		}
		at.kind, at.elem = leafList, s.Elem
		return []jLeaf{at}, nil
	case s.Kind == lower.Optional && s.Inner.Decl != nil:
		return nil, unsupported("nullable reference to %s inside a fused aggregate", s.Inner.Decl.Name)
	case s.Kind == lower.Port:
		return nil, unsupported("object reference %s inside a fused aggregate", s.Decl.Name)
	case s.Kind != lower.Record || s.Decl == nil:
		return nil, unsupported("java %s inside a fused aggregate", s.Type.Kind)
	}
	at.kind, at.class, at.size = leafObject, s.Decl.Name, len(s.Type.Fields)
	self, obj := cp.nObjs, len(*objs)
	cp.nObjs++
	*objs = append(*objs, move{op: leafObject, j: at, self: self})
	var out []jLeaf
	for _, f := range s.Fields {
		leaves, err := cp.jLeaves(f.Type, self, f.Index, false, objs)
		if err != nil {
			return nil, fmt.Errorf("%s.%s: %w", s.Decl.Name, f.Name, err)
		}
		out, (*objs)[obj].span = append(out, leaves...), f.Index+1
	}
	return out, nil
}

// cLeaves enumerates the C-side leaves of a type in lowering order. at
// locates the value: a frame word for a scalar carried in it, else an
// offset into a block.
func (cp *compiler) cLeaves(t *stype.Type, at cLeaf, bases *[]move) ([]cLeaf, error) {
	s, err := lower.ShapeOf(cp.cU, t)
	if err != nil {
		return nil, err
	}
	switch at.kind = scalarLeaf(&s); {
	case s.Kind == lower.Unit:
		return nil, nil
	case at.kind != 0:
		// Characters zero-extend when loaded, whatever holds them.
		at.size, at.unsigned = s.Bits/8, !s.Signed || s.Kind == lower.Character
		return []cLeaf{at}, nil
	case s.Kind == lower.Optional:
		return nil, unsupported("nullable C pointer")
	case at.base == inWord:
		return nil, unsupported("C %s passed or returned by value", s.Type.Kind)
	}
	return cp.block(&s, at, bases)
}

// block enumerates the leaves of an aggregate in memory: the fields of a
// struct or the elements of a fixed array at `at`, or — the shape being a
// pointer's — in the block the pointer at `at` points to. That block
// becomes a base register: its move goes to bases, ahead of what lies in
// it.
func (cp *compiler) block(s *lower.Shape, at cLeaf, bases *[]move) ([]cLeaf, error) {
	var elems []*stype.Type // the members, each at offs[i]
	var offs []int
	size, align := 0, 0 // of the block behind a pointer
	switch s.Kind {
	case lower.Record:
		lay, err := cp.lay.Of(s.Type)
		if err != nil {
			return nil, err
		}
		for _, f := range s.Fields {
			elems, offs = append(elems, f.Type), append(offs, lay.Offsets[f.Index])
		}
	case lower.Deref, lower.Fixed:
		n, elem := 1, s.Type.ElemType
		if s.Kind == lower.Fixed {
			n = s.N
		}
		lay, err := cp.lay.Of(elem)
		if err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			elems, offs = append(elems, elem), append(offs, i*lay.Size)
		}
		size, align = n*lay.Size, lay.Align
	default:
		return nil, unsupported("C %s inside a fused aggregate", s.Type.Kind)
	}
	if s.Type.Kind == stype.KPointer {
		at.kind, at.size, at.align = leafRegion, size, align
		*bases = append(*bases, move{op: leafRegion, c: at, self: cp.nWins})
		at = cLeaf{base: cp.nWins, word: at.word}
		cp.nWins++
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

// maxRegs bounds a call's registers of either kind; a stub that needs
// more is refused.
const maxRegs = 8

// reg is owner register i and base register i of a call: the fields of an
// object a move has resolved, the window of a memory block one has. Each
// direction keeps them in a local [maxRegs]reg and stores into it only in
// its own body: a store into a local array is a stack store and takes no
// write barrier, one through a slice or a pointer does while the collector
// marks.
type reg struct {
	obj []jheap.Slot
	win []byte
}

// put stores the low size bytes of w at a C end, get loads them.
func (fr *frame) put(regs *[maxRegs]reg, c *cLeaf, size int, w uint64) {
	if c.base == inWord {
		fr.words[c.off] = w
	} else {
		cmem.PutU(regs[c.base].win[c.off:], size, w)
	}
}

func (fr *frame) get(regs *[maxRegs]reg, c *cLeaf, size int) uint64 {
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

var errNotRef = fmt.Errorf("fuse: expected reference while navigating")

// word is the C word of Java slot s for a scalar leaf of C kind conv, or
// false when s is not of kind want; small enough to run in line.
func word(s *jheap.Slot, want jheap.SlotKind, conv leafKind) (uint64, bool) {
	if want != 0 && s.Kind != want {
		return 0, false
	}
	return toWord(s, conv), true
}

func kindErr(want jheap.SlotKind, s *jheap.Slot) error {
	return fmt.Errorf("fuse: leaf wants slot kind %d, got %d", want, s.Kind)
}

func elemErr(e int, err error) error { return fmt.Errorf("element %d: %w", e, err) }

// step runs one move toward C other than a list, and returns register
// mv.self as the move leaves it (a scalar move leaves them all as they are).
func (fr *frame) step(regs *[maxRegs]reg, mv *move) (reg, error) {
	r := regs[mv.self]
	var err error
	if mv.op == leafRegion {
		at := fr.mem.Alloc(mv.c.size, mv.c.align)
		fr.put(regs, &mv.c, fr.ptr, uint64(at))
		r.win, err = fr.mem.Window(at, mv.c.size)
		return r, err
	}
	switch s := &regs[mv.j.owner].obj[mv.j.field]; {
	case mv.op == 0:
		w, ok := word(s, mv.j.want, mv.c.kind)
		if !ok {
			return r, kindErr(mv.j.want, s)
		}
		fr.put(regs, &mv.c, mv.c.size, w)
	case s.Kind != jheap.SlotRef:
		err = errNotRef
	default:
		r.obj, err = object(fr.h, s.R, mv.span)
	}
	return r, err
}

// toC runs the request: moves from the Java arguments, owner register 0,
// into the C frame and memory. A list with a table runs in fill; any other
// runs here, not in a call that would need the registers' address: each
// element runs the element program, its fields the owner, its slice of
// the array the base, and its scalar leaves go straight to that slice.
func (fr *frame) toC(args []jheap.Slot, moves []move) error {
	var regs [maxRegs]reg
	regs[0].obj = args
	for i := range moves {
		mv := &moves[i]
		var err error
		if mv.op != leafList {
			if regs[mv.self], err = fr.step(&regs, mv); err != nil {
				return err
			}
			continue
		}
		s := &regs[mv.j.owner].obj[mv.j.field]
		if s.Kind != jheap.SlotRef {
			return errNotRef
		}
		elems, err := fr.h.VectorElems(s.R)
		if err != nil {
			return err
		}
		el, stride, base := mv.elem, mv.c.size, cmem.Null
		var array []byte
		if len(elems) > 0 {
			base = fr.mem.Alloc(len(elems)*stride, mv.c.align)
			if array, err = fr.mem.Window(base, len(elems)*stride); err != nil {
				return err
			}
		}
		fr.words[mv.c.off], fr.words[mv.c.lenWord] = uint64(base), uint64(len(elems))
		if el.runs != nil {
			if err := el.fill(fr.h, elems, array, stride); err != nil {
				return err
			}
			continue
		}
		for e, er := range elems {
			regs[el.frame].obj, err = object(fr.h, er, el.args)
			regs[el.window].win = array[e*stride : (e+1)*stride]
			for k := 0; k < len(el.moves) && err == nil; k++ {
				if em := &el.moves[k]; em.op != 0 {
					regs[em.self], err = fr.step(&regs, em)
				} else if w, ok := word(&regs[em.j.owner].obj[em.j.field], em.j.want, em.c.kind); ok {
					cmem.PutU(regs[em.c.base].win[em.c.off:], em.c.size, w)
				} else {
					err = kindErr(em.j.want, &regs[em.j.owner].obj[em.j.field])
				}
			}
			if err != nil {
				return elemErr(e, err)
			}
		}
	}
	return nil
}

// fill lays a list's elements out in array, stride bytes each, by the
// program's runs: per element one object resolved and one window cut.
func (el *program) fill(h *jheap.Heap, elems []jheap.Ref, array []byte, stride int) error {
	for e, er := range elems {
		fields, err := object(h, er, el.args)
		if err != nil {
			return elemErr(e, err)
		}
		win := array[e*stride:][:stride]
		for _, r := range el.runs {
			w, ok := word(&fields[r.field], r.want, r.conv)
			if !ok {
				return elemErr(e, kindErr(r.want, &fields[r.field]))
			}
			cmem.PutU(win[r.off:], r.size, w)
		}
	}
	return nil
}

// toJ runs the reply: moves from the C frame and memory into the Java
// outputs, owner register 0, allocating the result's objects as it
// reaches them. Its registers are a local array of its own, as toC's are.
func (fr *frame) toJ(outs []jheap.Slot, moves []move) error {
	var regs [maxRegs]reg
	regs[0].obj = outs
	for i := range moves {
		mv := &moves[i]
		var err error
		switch mv.op {
		case leafRegion:
			regs[mv.self].win, err = fr.mem.Window(cmem.Addr(fr.get(&regs, &mv.c, fr.ptr)), mv.c.size)
		case leafObject:
			r := fr.h.New(mv.j.class, mv.j.size)
			regs[mv.j.owner].obj[mv.j.field] = jheap.RefSlot(r)
			regs[mv.self].obj, err = fr.h.Fields(r)
		default:
			regs[mv.j.owner].obj[mv.j.field] = fromWord(fr.get(&regs, &mv.c, mv.c.size), &mv.c, mv.j.kind)
		}
		if err != nil {
			return err
		}
	}
	return nil
}
