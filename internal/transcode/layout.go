package transcode

import (
	"fmt"

	"repro/internal/limits"
	"repro/internal/mtype"
	"repro/internal/wire"
)

// layout is the precomputed wire shape of one declared type. CDR aligns
// every primitive to its size relative to the start of the enclosing
// value, so a subtree's byte image is a function of its start-offset
// residue: all interior alignments divide the subtree's maximum alignment
// a, hence the image depends only on (start mod a). For fixed-size types
// we tabulate the size for every residue 0..7, which is what lets a
// skip step over a subtree arithmetically and the stride kernel
// (stride.go) lay both sides of a pair out ahead of time.
type layout struct {
	// fixed reports a size independent of the bytes (no lists, choices,
	// or ports anywhere in the subtree).
	fixed bool
	// align is the maximum primitive alignment in the subtree (1, 2, 4,
	// or 8); meaningful only when fixed.
	align int
	// size[r] is the encoded size, including leading padding, when the
	// subtree starts at offset ≡ r (mod 8); meaningful only when fixed.
	size [8]int
	// op and rng are a primitive's conversion and range check (stride.go);
	// rng's zero value checks nothing.
	op  uint8
	rng rangeCheck
	// checked reports that decoding performs value validation somewhere
	// in the subtree (range-restricted integers). Such subtrees cannot
	// be skipped or copied without replicating the checks.
	checked bool
	// levels is the maximum decode recursion depth below this node (0
	// for primitives), mirroring wire.decode's per-level budget checks.
	levels int
	// refusal is why the fused subset has no program for a value of the
	// type; nil for every type a CDR transcoder can move.
	refusal error
}

// skipSafe reports that the subtree can be skipped arithmetically: no
// value validation happens during decode.
func (l *layout) skipSafe() bool { return l.fixed && !l.checked }

func primLayout(width int, op uint8, rng rangeCheck) layout {
	l := layout{fixed: true, align: width, op: op, rng: rng, checked: rng.kind != rangeNone}
	for r := 0; r < 8; r++ {
		l.size[r] = (width-r%width)%width + width
	}
	return l
}

// analyze computes the layout of a declared type, and is where a type
// outside the fused subset is refused: an integer or real no CDR
// primitive holds, or a chain of binders wire.Unfold gives up on. Cycles
// (recursive types) conservatively come out variable: the provisional
// memo entry is already in place when the recursion returns to t.
func (c *compiler) analyze(t *mtype.Type) *layout {
	if l, ok := c.lays[t]; ok {
		return l
	}
	l := &layout{}
	c.lays[t] = l
	if _, ok := mtype.ListElem(t); ok {
		return l
	}
	ut := wire.Unfold(t)
	if ut == nil {
		l.refusal = unsupported("recursive binders nest too deep to unfold")
		return l
	}
	switch ut.Kind() {
	case mtype.KindInteger:
		rng, err := intRange(ut)
		if err != nil {
			l.refusal = err
			return l
		}
		size, signed, _ := wire.IntWidth(ut) // fails only where intRange did
		*l = primLayout(size, opZext, rng)
		if signed {
			l.op = opSext
		}
	case mtype.KindCharacter:
		*l = primLayout(wire.CharWidth(ut), opZext, rangeCheck{})
	case mtype.KindReal:
		size, err := wire.RealWidth(ut)
		if err != nil {
			l.refusal = unsupported("real exceeds binary64")
			return l
		}
		*l = primLayout(size, opReal, rangeCheck{})
	case mtype.KindUnit:
		*l = layout{fixed: true, align: 1}
	case mtype.KindRecord:
		fields := ut.Fields()
		subs := make([]*layout, len(fields))
		fixed, checked, align, levels := true, false, 1, 0
		for i, f := range fields {
			fl := c.analyze(f.Type)
			subs[i] = fl
			fixed = fixed && fl.fixed
			checked = checked || fl.checked
			if fl.align > align {
				align = fl.align
			}
			if lv := 1 + fl.levels; lv > levels {
				levels = lv
			}
		}
		l.checked = checked
		l.levels = levels
		if !fixed {
			return l
		}
		l.fixed = true
		l.align = align
		for r := 0; r < 8; r++ {
			off := r
			for _, fl := range subs {
				off += fl.size[off%8]
			}
			l.size[r] = off - r
		}
	default:
		// Choices, ports, and anything unknown are variable-size and
		// carry decode-time validation (discriminant and length checks).
		l.checked = true
	}
	return l
}

// refusal returns the first refusal analyze records for the types.
func (c *compiler) refusal(ts ...*mtype.Type) error {
	for _, t := range ts {
		if err := c.analyze(t).refusal; err != nil {
			return err
		}
	}
	return nil
}

// intChecked reports whether decoding the integer type performs a
// non-vacuous range check (the range does not cover its full CDR width).
func intChecked(ut *mtype.Type) bool {
	size, signed, err := wire.IntWidth(ut)
	if err != nil {
		return true
	}
	lo, hi, _, _ := ut.IntegerWords()
	if signed {
		min := int64(-1) << uint(8*size-1)
		return int64(lo) != min || int64(hi) != ^min
	}
	return lo != 0 || hi != ^uint64(0)>>uint(64-8*size)
}

// skipFn validates and measures one value of a declared type starting at
// off, returning the offset just past it. It mirrors wire.decode's
// checks (depth budget, truncation, integer ranges, discriminant bounds,
// list caps) without building values, so a transcoder that only skips a
// subtree (a dropped record leaf) still fails exactly when the tree
// engine would.
type skipFn func(src []byte, off, depth int) (int, error)

type skipSlot struct{ fn skipFn }

func (c *compiler) skipFor(t *mtype.Type) (skipFn, error) {
	if s, ok := c.skips[t]; ok {
		if s.fn == nil {
			// Cycle: indirect through the slot filled after compilation.
			return func(src []byte, off, depth int) (int, error) {
				return s.fn(src, off, depth)
			}, nil
		}
		return s.fn, nil
	}
	s := &skipSlot{}
	c.skips[t] = s
	fn, err := c.skipForNew(t)
	if err != nil {
		return nil, err
	}
	s.fn = fn
	return fn, nil
}

func (c *compiler) skipForNew(t *mtype.Type) (skipFn, error) {
	if elem, ok := mtype.ListElem(t); ok {
		elemSkip, err := c.skipFor(elem)
		if err != nil {
			return nil, err
		}
		lay := c.analyze(elem)
		return func(src []byte, off, depth int) (int, error) {
			if depth > wire.MaxDecodeDepth {
				return 0, depthErr()
			}
			n64, off, err := wire.ReadUint(src, off, 4)
			if err != nil {
				return 0, err
			}
			if n64 > wire.MaxListLen {
				return 0, limits.Exceededf("transcode: list length %d exceeds limit of %d", n64, wire.MaxListLen)
			}
			n := int(n64)
			if n == 0 {
				return off, nil
			}
			if lay.skipSafe() {
				if depth+1+lay.levels > wire.MaxDecodeDepth {
					return 0, depthErr()
				}
				if sz := lay.size[off%8]; sz%lay.align == 0 {
					off += n * sz
				} else {
					for i := 0; i < n; i++ {
						off += lay.size[off%8]
					}
				}
				if off > len(src) {
					return 0, errTruncated
				}
				return off, nil
			}
			for i := 0; i < n; i++ {
				off, err = elemSkip(src, off, depth+1)
				if err != nil {
					return 0, err
				}
			}
			return off, nil
		}, nil
	}
	lay := c.analyze(t)
	if lay.refusal != nil {
		return nil, lay.refusal
	}
	if lay.skipSafe() {
		levels := lay.levels
		size := lay.size
		return func(src []byte, off, depth int) (int, error) {
			if depth+levels > wire.MaxDecodeDepth {
				return 0, depthErr()
			}
			off += size[off%8]
			if off > len(src) {
				return 0, errTruncated
			}
			return off, nil
		}, nil
	}
	// What is left carries a check: a range-restricted integer, or a
	// record, choice or port.
	switch ut := wire.Unfold(t); ut.Kind() {
	case mtype.KindInteger:
		size, check := lay.align, lay.rng
		return func(src []byte, off, depth int) (int, error) {
			if depth > wire.MaxDecodeDepth {
				return 0, depthErr()
			}
			u, off, err := wire.ReadUint(src, off, size)
			if err != nil {
				return 0, err
			}
			if err := check.check(u, size); err != nil {
				return 0, err
			}
			return off, nil
		}, nil
	case mtype.KindRecord:
		fields := ut.Fields()
		subs := make([]skipFn, len(fields))
		for i, f := range fields {
			fn, err := c.skipFor(f.Type)
			if err != nil {
				return nil, err
			}
			subs[i] = fn
		}
		return func(src []byte, off, depth int) (int, error) {
			if depth > wire.MaxDecodeDepth {
				return 0, depthErr()
			}
			var err error
			for _, fn := range subs {
				off, err = fn(src, off, depth+1)
				if err != nil {
					return 0, err
				}
			}
			return off, nil
		}, nil
	case mtype.KindChoice:
		alts := ut.Alts()
		subs := make([]skipFn, len(alts))
		for i, a := range alts {
			fn, err := c.skipFor(a.Type)
			if err != nil {
				return nil, err
			}
			subs[i] = fn
		}
		return func(src []byte, off, depth int) (int, error) {
			if depth > wire.MaxDecodeDepth {
				return 0, depthErr()
			}
			disc, off, err := wire.ReadUint(src, off, 4)
			if err != nil {
				return 0, err
			}
			if disc >= uint64(len(subs)) {
				return 0, discErr(disc, len(subs))
			}
			return subs[disc](src, off, depth+1)
		}, nil
	default: // mtype.KindPort
		return func(src []byte, off, depth int) (int, error) {
			if depth > wire.MaxDecodeDepth {
				return 0, depthErr()
			}
			n, off, err := wire.ReadUint(src, off, 4)
			if err != nil {
				return 0, err
			}
			if uint64(off)+n > uint64(len(src)) {
				return 0, fmt.Errorf("transcode: %w (port reference)", wire.ErrShort)
			}
			return off + int(n), nil
		}, nil
	}
}

// rangeCheck is the validation wire.decode applies to integers of one
// type; the zero value is the vacuous check of a range filling its width.
type rangeCheck struct {
	kind   uint8
	lo, hi uint64 // int64 bits when kind is rangeSigned
}

const (
	rangeNone = iota
	rangeSigned
	rangeUnsigned
)

func intRange(ut *mtype.Type) (rangeCheck, error) {
	lo, hi, signed, ok := ut.IntegerWords()
	switch {
	case !ok:
		return rangeCheck{}, unsupported("integer range exceeds 64 bits")
	case !intChecked(ut):
		return rangeCheck{}, nil
	case signed:
		return rangeCheck{rangeSigned, lo, hi}, nil
	}
	return rangeCheck{rangeUnsigned, lo, hi}, nil
}

// check validates u, read from size bytes.
func (r rangeCheck) check(u uint64, size int) error {
	shift := uint(64 - 8*size)
	switch v := int64(u<<shift) >> shift; {
	case r.kind == rangeSigned && (v < int64(r.lo) || v > int64(r.hi)):
		return fmt.Errorf("transcode: decoded %d outside range [%d..%d]", v, int64(r.lo), int64(r.hi))
	case r.kind == rangeUnsigned && (u < r.lo || u > r.hi):
		return fmt.Errorf("transcode: decoded %d outside range [%d..%d]", u, r.lo, r.hi)
	}
	return nil
}

func depthErr() error {
	return limits.Exceededf("transcode: value nesting exceeds depth budget of %d", wire.MaxDecodeDepth)
}

// errTruncated is preallocated: the streaming executor (SeqStep) hits a
// short read at nearly every window boundary and rolls it back, so
// formatting an offset into each would put fmt.Errorf on the per-chunk
// resume path.
var errTruncated = fmt.Errorf("transcode: %w inside value", wire.ErrShort)

func discErr(disc uint64, alts int) error {
	return fmt.Errorf("transcode: discriminant %d out of range (%d alternatives)", disc, alts)
}
