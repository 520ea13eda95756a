package fuse

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/cmem"
	"repro/internal/compare"
	"repro/internal/jheap"
	"repro/internal/lower"
	"repro/internal/plan"
	"repro/internal/stype"
)

// Call is a fully specialized Java→C call stub: it reads Java argument
// slots, writes C argument memory, invokes the implementation, and
// constructs Java result objects, with no dynamic value trees anywhere.
type Call struct {
	model cmem.Model
	impl  func(mem *cmem.Arena, args []uint64) (uint64, error)

	// The C frame is one word per C parameter and then the return word;
	// the Java frame, owner register 0, is nArgs argument slots going in
	// and the output slots (none for void, else the result) coming back.
	nCArgs, nArgs, nOuts int
	// request runs toward C: the argument objects, the out buffers, then
	// per input parameter its memory blocks and the leaves that fill them
	// or its word. reply runs toward Java: the result's objects, the blocks
	// the outputs lie in, then the leaves.
	request, reply []move
	frames         sync.Pool // of *frame, each with its arena and C frame
}

// under lists the live leaves of a flattened record that lie in its first
// n fields.
func under(flat []compare.FlatLeaf, n int) []int {
	var idx []int
	for i, l := range flat {
		if !l.Unit && len(l.Path) > 0 && l.Path[0] < n {
			idx = append(idx, i)
		}
	}
	return idx
}

// pair builds the moves for the leaves a plan record node matches up. The
// A-side declaration's p-th leaf is FlatA[aIdx[p]], the B side's q-th is
// FlatB[bIdx[q]], and the node's permutation says which q each p feeds;
// the Java leaves are the A side when the moves run toward C. A list leaf
// recurses into the cons record of its own pair.
func (cp *compiler) pair(n *plan.Node, aIdx, bIdx []int, jls []jLeaf, cls []cLeaf, toC bool) ([]move, error) {
	na, nb := len(jls), len(cls)
	if !toC {
		na, nb = nb, na
	}
	if len(aIdx) != na || len(bIdx) != nb {
		return nil, unsupported("the plan pairs %d leaves with %d where the declarations hold %d and %d", len(aIdx), len(bIdx), na, nb)
	}
	bPos := make(map[int]int, len(bIdx))
	for q, j := range bIdx {
		bPos[j] = q
	}
	moves := make([]move, 0, len(aIdx))
	for p, i := range aIdx {
		q, ok := bPos[n.Perm[i]]
		if !ok {
			return nil, fmt.Errorf("fuse: internal: plan leaf %d feeds no leaf of the other declaration", i)
		}
		mv := move{j: jls[p], c: cls[q]}
		if !toC {
			mv = move{j: jls[q], c: cls[p]}
		}
		if !compatible(mv.j.kind, mv.c.kind) {
			return nil, fmt.Errorf("fuse: internal: plan leaf %d pairs java kind %d with C kind %d", i, mv.j.kind, mv.c.kind)
		}
		if mv.c.kind == leafList {
			// The list fills the element's window register, and its owner
			// register — the first its leaves define — in that move's place.
			cons := n.LeafPlans[i].AltPlans[1] // list = μ Choice(nil, cons(elem, list))
			mv.op, mv.elem = leafList, &program{window: cp.nWins}
			cp.nWins++
			var objs, bases []move
			ejls, err := cp.jLeaves(mv.j.elem, 0, 0, false, &objs)
			if err != nil {
				return nil, fmt.Errorf("element: %w", err)
			}
			ecls, err := cp.cLeaves(mv.c.elem, cLeaf{base: mv.elem.window}, &bases)
			if err != nil {
				return nil, fmt.Errorf("element: %w", err)
			}
			leaves, err := cp.pair(cons, under(cons.FlatA, 1), under(cons.FlatB, 1), ejls, ecls, toC)
			if err != nil {
				return nil, fmt.Errorf("element: %w", err)
			}
			mv.elem.frame, mv.elem.args = objs[0].self, objs[0].span
			mv.elem.moves = append(append(objs[1:], bases...), leaves...)
			mv.elem.tabulate()
		}
		moves = append(moves, mv)
	}
	return moves, nil
}

// CompileCall builds a fused stub between a Java function-shaped
// declaration (a synthesized method declaration works, see
// core.MethodDecl) and a C function declaration. reqPlan is the coercion
// plan for the request records (Java→C) and repPlan for the reply records
// (C→Java); both come from a successful equivalence match (see
// CompileFromSession, which assembles all of this from a core.Session).
// impl is the C function: the arena and the argument words it is handed
// are valid only until it returns, when the next call may reuse them.
// Constructs outside the fused subset return ErrUnsupported-wrapped errors.
func CompileCall(
	jU *stype.Universe, jFn *stype.Type,
	cU *stype.Universe, cFn *stype.Type,
	model cmem.Model,
	reqPlan, repPlan *plan.Plan,
	impl func(mem *cmem.Arena, args []uint64) (uint64, error),
) (*Call, error) {
	if jFn.Kind != stype.KFunc || cFn.Kind != stype.KFunc {
		return nil, fmt.Errorf("fuse: both declarations must be functions (got %s, %s)", jFn.Kind, cFn.Kind)
	}
	cp := &compiler{jU: jU, cU: cU, lay: cmem.NewLayouts(cU, model), nObjs: 1} // owner 0 is the Java frame
	jSig, err := lower.SignatureOf(jFn.Params, jFn.Result)
	if err != nil {
		return nil, err
	}
	cSig, err := lower.SignatureOf(cFn.Params, cFn.Result)
	if err != nil {
		return nil, err
	}
	call := &Call{model: model, impl: impl, nCArgs: len(cFn.Params), nArgs: len(jFn.Params)}
	call.frames.New = func() any {
		return &frame{mem: cmem.NewArena(), words: make([]uint64, call.nCArgs+1), ptr: model.PointerSize()}
	}

	// Java side of the request: one frame slot per parameter.
	var jls []jLeaf
	var request, reply []move // owners first, then out buffers
	for a, p := range jFn.Params {
		if role := jSig.Roles[p.Name]; role != lower.RoleIn {
			return nil, unsupported("java parameter %s has role %s", p.Name, role)
		}
		leaves, err := cp.jLeaves(p.Type, 0, a, true, &request)
		if err != nil {
			return nil, fmt.Errorf("parameter %s: %w", p.Name, err)
		}
		jls = append(jls, leaves...)
	}

	// C side: one frame word per parameter. ins are the leaves of the
	// input record in its field order, outs those of the reply record.
	lenWord := make(map[string]int) // list parameter → the word of its length parameter
	for k, p := range cFn.Params {
		if arr, ok := cSig.LengthOf[p.Name]; ok {
			lenWord[arr] = k
		}
	}
	var ins, outs []cLeaf
	var blocks []move // of the input parameters
	nIn := 0
	for k, p := range cFn.Params {
		s, err := lower.ShapeOf(cU, p.Type)
		if err != nil {
			return nil, err
		}
		var leaves []cLeaf
		at := cLeaf{base: inWord, off: k, word: k}
		pointer := s.Type.Kind == stype.KPointer
		role, into := cSig.Roles[p.Name], &blocks
		if role == lower.RoleOut {
			into = new([]move) // the buffer, then what it points to
		}
		n, counted := lenWord[p.Name]
		switch {
		case role == lower.RoleInOut:
			return nil, unsupported("inout parameter %s", p.Name)
		case role == lower.RoleLength:
			if arr := cSig.LengthOf[p.Name]; cSig.Roles[arr] != lower.RoleIn {
				return nil, unsupported("length parameter %s counts %s, which is not an input list", p.Name, arr)
			}
			continue
		case role == lower.RoleOut && !pointer:
			return nil, unsupported("out parameter %s is not a pointer", p.Name)
		case s.Kind == lower.List && counted && role == lower.RoleIn:
			var lay *cmem.Layout
			if lay, err = cp.lay.Of(s.Elem); err == nil {
				at.kind, at.size, at.align, at.elem, at.lenWord = leafList, lay.Size, lay.Align, s.Elem, n
				leaves = []cLeaf{at}
			}
		case pointer && (s.Kind == lower.Deref || s.Kind == lower.Fixed):
			leaves, err = cp.block(&s, at, into)
		default: // a scalar in the argument word; cLeaves refuses the rest
			leaves, err = cp.cLeaves(p.Type, at, into)
		}
		if err != nil {
			return nil, fmt.Errorf("parameter %s: %w", p.Name, err)
		}
		if role == lower.RoleOut {
			// The request allocates the buffer; the reply resolves it again.
			request, reply, outs = append(request, (*into)[0]), append(reply, *into...), append(outs, leaves...)
			continue
		}
		ins = append(ins, leaves...)
		nIn++
	}
	moves, err := cp.pair(reqPlan.Root, under(reqPlan.Root.FlatA, len(jFn.Params)), under(reqPlan.Root.FlatB, nIn), jls, ins, true)
	if err != nil {
		return nil, fmt.Errorf("request: %w", err)
	}
	// C parameter order: a parameter's blocks, then what fills them.
	moves = append(blocks, moves...)
	for k := range cFn.Params {
		for _, mv := range moves {
			if mv.c.word == k {
				request = append(request, mv)
			}
		}
	}
	call.request = request

	// Reply: the C outputs are the out buffers in order and then the
	// return word, the Java output is the result.
	if cFn.Result != nil {
		leaves, err := cp.cLeaves(cFn.Result, cLeaf{base: inWord, off: call.nCArgs, word: call.nCArgs}, &reply)
		if err != nil {
			return nil, fmt.Errorf("return: %w", err)
		}
		outs = append(outs, leaves...)
	}
	jls = nil
	if jFn.Result != nil {
		call.nOuts = 1
		if jls, err = cp.jLeaves(jFn.Result, 0, 0, false, &reply); err != nil {
			return nil, fmt.Errorf("result: %w", err)
		}
	}
	moves, err = cp.pair(repPlan.Root, under(repPlan.Root.FlatA, math.MaxInt), under(repPlan.Root.FlatB, math.MaxInt), jls, outs, false)
	if err != nil {
		return nil, fmt.Errorf("reply: %w", err)
	}
	if n := max(cp.nObjs, cp.nWins); n > maxRegs {
		return nil, unsupported("the stub needs %d registers where a call holds %d", n, maxRegs)
	}
	call.reply = append(reply, moves...)
	return call, nil
}

// arenaNeed is the arena bytes a run of moves toward C takes: its regions,
// and per list — args holds them — its elements and what each allocates.
// A list it cannot size is left for the run to refuse.
func arenaNeed(moves []move, h *jheap.Heap, args []jheap.Slot) (n int) {
	for i := range moves {
		switch mv := &moves[i]; mv.op {
		case leafRegion:
			n += mv.c.size + mv.c.align
		case leafList:
			elems, _ := h.VectorElems(args[mv.j.field].R)
			n += len(elems)*(mv.c.size+arenaNeed(mv.elem.moves, h, nil)) + mv.c.align
		}
	}
	return n
}

// Invoke runs the fused call: Java argument slots in, Java output slots
// out (the return value, if any). Its frame (arena and C frame) is one an
// earlier call gave back emptied; the arena is sized once, before the
// request runs, so that no window the request holds is moved.
func (c *Call) Invoke(h *jheap.Heap, args []jheap.Slot) ([]jheap.Slot, error) {
	if len(args) < c.nArgs {
		return nil, fmt.Errorf("fuse: argument %d missing", len(args))
	}
	fr := c.frames.Get().(*frame)
	defer c.release(fr)
	fr.h = h
	fr.mem.Grow(arenaNeed(c.request, h, args))
	if err := fr.toC(args, c.request); err != nil {
		return nil, err
	}
	ret, err := c.impl(fr.mem, fr.words[:c.nCArgs:c.nCArgs])
	if err != nil {
		return nil, err
	}
	fr.words[c.nCArgs] = ret
	outs := make([]jheap.Slot, c.nOuts)
	if err := fr.toJ(outs, c.reply); err != nil {
		return nil, err
	}
	return outs, nil
}

// release empties a frame and gives it back for the next call.
func (c *Call) release(fr *frame) {
	fr.h = nil
	fr.mem.Reset()
	clear(fr.words)
	c.frames.Put(fr)
}
