package fuse

import (
	"fmt"
	"math"

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
	// the Java frame is the argument slots going in and the output slots
	// (none for void, else the result) coming back.
	nCArgs, nOuts int
	// request runs toward C: the out buffers, then per input parameter
	// its backing region and the leaves that fill it or its word. reply
	// runs toward Java: the result's objects, then its leaves.
	request, reply []move
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
			cons := n.LeafPlans[i].AltPlans[1] // list = μ Choice(nil, cons(elem, list))
			ejls, err := cp.jLeaves(mv.j.elem, []int{0}, nil)
			if err != nil {
				return nil, fmt.Errorf("element: %w", err)
			}
			ecls, err := cp.cLeaves(mv.c.elem, cLeaf{hops: []cHop{{}}})
			if err != nil {
				return nil, fmt.Errorf("element: %w", err)
			}
			if mv.elem, err = cp.pair(cons, under(cons.FlatA, 1), under(cons.FlatB, 1), ejls, ecls, toC); err != nil {
				return nil, fmt.Errorf("element: %w", err)
			}
		}
		moves = append(moves, mv)
	}
	return moves, nil
}

// region returns the move that allocates backing memory for a value of
// type t behind frame word `word`, and the value's leaves.
func (cp *compiler) region(t *stype.Type, word int) (move, []cLeaf, error) {
	lay, err := cp.lay.Of(t)
	if err != nil {
		return move{}, nil, err
	}
	leaves, err := cp.cLeaves(t, cLeaf{word: word, hops: []cHop{{}}})
	return move{c: cLeaf{word: word, kind: leafRegion, size: lay.Size, align: lay.Align}}, leaves, err
}

// CompileCall builds a fused stub between a Java function-shaped
// declaration (a synthesized method declaration works, see
// core.MethodDecl) and a C function declaration. reqPlan is the coercion
// plan for the request records (Java→C) and repPlan for the reply records
// (C→Java); both come from a successful equivalence match (see
// CompileFromSession, which assembles all of this from a core.Session).
// Returns ErrUnsupported-wrapped errors for constructs outside the fused
// subset.
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
	cp := &compiler{jU: jU, cU: cU, lay: cmem.NewLayouts(cU, model)}
	jSig, err := lower.SignatureOf(jFn.Params, jFn.Result)
	if err != nil {
		return nil, err
	}
	cSig, err := lower.SignatureOf(cFn.Params, cFn.Result)
	if err != nil {
		return nil, err
	}
	call := &Call{model: model, impl: impl, nCArgs: len(cFn.Params)}

	// Java side of the request: one frame slot per parameter.
	var jls []jLeaf
	for a, p := range jFn.Params {
		if role := jSig.Roles[p.Name]; role != lower.RoleIn {
			return nil, unsupported("java parameter %s has role %s", p.Name, role)
		}
		leaves, err := cp.jLeaves(p.Type, []int{a}, nil)
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
	var regions []move // of the input parameters
	nIn := 0
	for k, p := range cFn.Params {
		t, _, err := resolveNamed(cU, p.Type)
		if err != nil {
			return nil, err
		}
		var leaves []cLeaf
		switch role := cSig.Roles[p.Name]; {
		case role == lower.RoleInOut:
			return nil, unsupported("inout parameter %s", p.Name)
		case role == lower.RoleLength:
			if arr := cSig.LengthOf[p.Name]; cSig.Roles[arr] != lower.RoleIn {
				return nil, unsupported("length parameter %s counts %s, which is not an input list", p.Name, arr)
			}
			continue
		case role == lower.RoleOut && t.Kind != stype.KPointer:
			return nil, unsupported("out parameter %s is not a pointer", p.Name)
		case role == lower.RoleOut:
			var buf move
			if buf, leaves, err = cp.region(t.ElemType, k); err != nil {
				return nil, fmt.Errorf("parameter %s: %w", p.Name, err)
			}
			call.request, outs = append(call.request, buf), append(outs, leaves...)
			continue
		case (t.Kind == stype.KPointer || t.Kind == stype.KArray) && t.Ann.LengthFrom != "":
			var lay *cmem.Layout
			if lay, err = cp.lay.Of(t.ElemType); err == nil {
				leaves = []cLeaf{{word: k, kind: leafList, size: lay.Size, align: lay.Align, elem: t.ElemType, lenWord: lenWord[p.Name]}}
			}
		case t.Kind == stype.KPointer && (t.Ann.NonNull || t.Ann.FixedLen > 0):
			pointee := t.ElemType
			if t.Ann.FixedLen > 0 {
				pointee = stype.NewArray(t.ElemType, t.Ann.FixedLen)
			}
			var buf move
			buf, leaves, err = cp.region(pointee, k)
			regions = append(regions, buf)
		default: // a scalar in the argument word; cLeaves refuses the rest
			leaves, err = cp.cLeaves(t, cLeaf{word: k})
		}
		if err != nil {
			return nil, fmt.Errorf("parameter %s: %w", p.Name, err)
		}
		ins = append(ins, leaves...)
		nIn++
	}
	moves, err := cp.pair(reqPlan.Root, under(reqPlan.Root.FlatA, len(jFn.Params)), under(reqPlan.Root.FlatB, nIn), jls, ins, true)
	if err != nil {
		return nil, fmt.Errorf("request: %w", err)
	}
	// C parameter order: a parameter's region, then what fills it.
	moves = append(regions, moves...)
	for k := range cFn.Params {
		for _, mv := range moves {
			if mv.c.word == k {
				call.request = append(call.request, mv)
			}
		}
	}

	// Reply: the C outputs are the out buffers in order and then the
	// return word, the Java output is the result.
	if cFn.Result != nil {
		leaves, err := cp.cLeaves(cFn.Result, cLeaf{word: call.nCArgs})
		if err != nil {
			return nil, fmt.Errorf("return: %w", err)
		}
		outs = append(outs, leaves...)
	}
	jls = nil
	if jFn.Result != nil {
		call.nOuts = 1
		if jls, err = cp.jLeaves(jFn.Result, []int{0}, &call.reply); err != nil {
			return nil, fmt.Errorf("result: %w", err)
		}
	}
	moves, err = cp.pair(repPlan.Root, under(repPlan.Root.FlatA, math.MaxInt), under(repPlan.Root.FlatB, math.MaxInt), jls, outs, false)
	if err != nil {
		return nil, fmt.Errorf("reply: %w", err)
	}
	call.reply = append(call.reply, moves...)
	return call, nil
}

// Invoke runs the fused call: Java argument slots in, Java output slots
// out (the return value, if the method has one).
func (c *Call) Invoke(h *jheap.Heap, args []jheap.Slot) ([]jheap.Slot, error) {
	mem := cmem.NewArena()
	words := make([]uint64, c.nCArgs+1)
	if err := c.toC(h, args, mem, words, c.request); err != nil {
		return nil, err
	}
	ret, err := c.impl(mem, words[:c.nCArgs:c.nCArgs])
	if err != nil {
		return nil, err
	}
	words[c.nCArgs] = ret
	outs := make([]jheap.Slot, c.nOuts)
	if err := c.toJ(h, outs, mem, words, c.reply); err != nil {
		return nil, err
	}
	return outs, nil
}
