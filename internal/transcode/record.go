package transcode

import (
	"repro/internal/compare"
	"repro/internal/plan"
	"repro/internal/wire"
)

type leafStep struct {
	skip     skipFn
	depthAdd int
}

type outStep struct {
	src  int // A-leaf index feeding this B leaf
	emit emitFn
}

// record compiles a record-to-record conversion over the plan's
// flattened leaves: commutative permutation and associative flattening
// reduce to reordering one flat leaf sequence into another. The emitted
// program runs in two phases — a validating scan over the A leaves that
// builds an offset table in pooled scratch, then an emission pass in
// B-leaf order reading each leaf at its recorded span. A pair that is
// fixed-layout throughout also gets a stride kernel (stride.go), returned
// beside the program: callers hand this program only the record the
// kernel stopped at. Short of that, a leading run of fixed-layout leaves
// that stay in place (the common partially-permuted case) gets a kernel
// of its own and moves by table once the scan has passed.
//
// dropLead strips that many leading path components from leaf depth
// accounting; consElem passes 1 because its leaves are rooted at the
// cons cell's head field while wire.decode recurses on the element type
// directly.
func (c *compiler) record(flatA, flatB []compare.FlatLeaf, perm []int, leafPlans []*plan.Node, dropLead int) (emitFn, *kernel, error) {
	if len(flatA) > c.maxLeaves {
		c.maxLeaves = len(flatA)
	}

	steps := make([]leafStep, len(flatA))
	for i, leaf := range flatA {
		skip, err := c.skipFor(leaf.Node)
		if err != nil {
			return nil, nil, err
		}
		steps[i] = leafStep{skip: skip, depthAdd: max(len(leaf.Path)-dropLead, 0)}
	}

	invPerm := make([]int, len(flatB))
	for j := range invPerm {
		invPerm[j] = -1
	}
	for i, j := range perm {
		if j >= 0 {
			invPerm[j] = i
		}
	}

	outs := make([]outStep, len(flatB))
	for j, bl := range flatB {
		if bl.Unit {
			outs[j] = outStep{emit: nil}
			continue
		}
		i := invPerm[j]
		emit, err := c.pair(leafPlans[i], flatA[i].Node, flatB[j].Node)
		if err != nil {
			return nil, nil, err
		}
		outs[j] = outStep{src: i, emit: emit}
	}

	k := c.kernel(flatA, flatB, invPerm, leafPlans, dropLead)
	var pk *kernel // of the in-place prefix, when not of the whole record
	prefix := 0
	for k == nil && prefix < len(flatA) && prefix < len(flatB) && c.analyze(flatA[prefix].Node).fixed &&
		(perm[prefix] == prefix || flatA[prefix].Unit && flatB[prefix].Unit) {
		prefix++
	}
	if prefix > 0 {
		pk = c.kernel(flatA[:prefix], flatB[:prefix], invPerm, leafPlans, dropLead)
	}

	return func(x *xctx) error {
		if x.depth > wire.MaxDecodeDepth {
			return depthErr()
		}
		spans, mark := x.grabSpans(len(steps))
		entryOff := x.off
		for i := range steps {
			st := &steps[i]
			spans[i] = x.off
			off2, err := st.skip(x.src, x.off, x.depth+st.depthAdd)
			if err != nil {
				x.arena = x.arena[:mark]
				return err
			}
			x.off = off2
		}
		endOff := x.off
		baseDepth := x.depth

		j0 := 0
		if pk != nil {
			x.off = entryOff
			if n, _ := pk.step(x, 1); n == 1 {
				j0 = prefix
			}
		}
		for j := j0; j < len(outs); j++ {
			o := &outs[j]
			if o.emit == nil {
				continue
			}
			x.off = spans[o.src]
			x.depth = baseDepth + steps[o.src].depthAdd
			if err := o.emit(x); err != nil {
				x.depth = baseDepth
				x.arena = x.arena[:mark]
				return err
			}
		}
		x.depth = baseDepth
		x.off = endOff
		x.arena = x.arena[:mark]
		return nil
	}, k, nil
}
