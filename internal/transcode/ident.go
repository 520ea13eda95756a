package transcode

import (
	"repro/internal/mtype"
	"repro/internal/wire"
)

// ident compiles an identity conversion between two declared types that
// unfold to the same Mtype node (a DecSame plan leaf). Identity is not
// simply memcpy: padding must be re-zeroed, range checks re-applied, and
// binary32 NaNs re-canonicalized to stay byte-identical with
// decode→encode — fixed-layout subtrees move by the stride kernel's
// table, everything else is structurally re-emitted.
//
// The declared pair matters once, at the top: two distinct μ nodes can
// share an unfolding while only one of them is list-shaped (sequence
// encoded). Below the top level both sides walk the same declared
// children, so the pair degenerates to identical pointers.
func (c *compiler) ident(tA, tB *mtype.Type) (emitFn, error) {
	key := identKey{tA, tB}
	if s, ok := c.idents[key]; ok {
		if s.fn == nil {
			return func(x *xctx) error { return s.fn(x) }, nil
		}
		return s.fn, nil
	}
	s := &emitSlot{}
	c.idents[key] = s
	fn, err := c.identNew(tA, tB)
	if err != nil {
		return nil, err
	}
	s.fn = fn
	return fn, nil
}

func (c *compiler) identNew(tA, tB *mtype.Type) (emitFn, error) {
	// pairNew refused a list-shaped side against one that is not, and two
	// list-shaped types with one unfolding are one node: the unfolding's
	// cons cell names its list.
	if elem, ok := mtype.ListElem(tA); ok {
		fn, err := c.ident(elem, elem)
		if err != nil {
			return nil, err
		}
		return listEmit(fn, c.identKernel(elem)), nil
	}
	if err := c.refusal(tA, tB); err != nil {
		return nil, err
	}
	switch ut := wire.Unfold(tA); ut.Kind() {
	case mtype.KindInteger, mtype.KindCharacter, mtype.KindReal:
		return c.primEmit(tA, tB)
	case mtype.KindUnit:
		return func(x *xctx) error {
			if x.depth > wire.MaxDecodeDepth {
				return depthErr()
			}
			return nil
		}, nil
	case mtype.KindPort:
		return portEmit(), nil
	case mtype.KindRecord:
		fields := ut.Fields()
		subs := make([]emitFn, len(fields))
		for i, f := range fields {
			fn, err := c.ident(f.Type, f.Type)
			if err != nil {
				return nil, err
			}
			subs[i] = fn
		}
		structural := func(x *xctx) error {
			if x.depth > wire.MaxDecodeDepth {
				return depthErr()
			}
			x.depth++
			for _, fn := range subs {
				if err := fn(x); err != nil {
					x.depth--
					return err
				}
			}
			x.depth--
			return nil
		}
		return kernelOr(c.identKernel(tA), structural), nil
	default: // mtype.KindChoice
		alts := ut.Alts()
		subs := make([]emitFn, len(alts))
		remap := make([]uint64, len(alts))
		for i, a := range alts {
			fn, err := c.ident(a.Type, a.Type)
			if err != nil {
				return nil, err
			}
			subs[i], remap[i] = fn, uint64(i)
		}
		return choiceEmit(subs, remap), nil
	}
}
