package transcode

import (
	"encoding/binary"
	"slices"
	"sync/atomic"

	"repro/internal/compare"
	"repro/internal/mtype"
	"repro/internal/plan"
	"repro/internal/wire"
)

// The stride kernel, first op family of the linear coercion program
// (DESIGN.md). Between two fixed-layout types a conversion is a
// permutation of fixed-width fields, a compile-time constant of the
// pair. A kernel holds it free of residues and cuts from it, on first
// use, one move table per (source residue, destination residue);
// sequences, records, identity records and the streaming step all run
// those tables, as many records a call as the input holds whole. A
// kernel only ever succeeds: it stops before the first record that is
// incomplete, fails a check or exceeds the depth budget, and the closure
// program runs on that record, so errors keep one author.
type kernel struct {
	srcW           []uint8 // source primitive widths, wire order
	outs           []move  // destination primitives, wire order; srcOff indexes srcW
	alignA, alignB int     // widest primitive a side: residues repeat modulo it
	levels         int     // decode depth below the value, as wire.decode counts it
	tabs           []atomic.Pointer[table]
}

const (
	opCopy = iota // n bytes verbatim: a run of coalesced same-width moves
	opZext        // unsigned integer or character, any width to any width
	opSext        // signed integer
	opReal        // binary32/binary64 through realBits
)

// move turns srcW bytes at srcOff into dstW bytes at dstOff, relative to
// the record's start.
type move struct {
	srcOff, dstOff, n int // n: opCopy's run length
	srcW, dstW, op    uint8
	chk               rangeCheck
}

// table is a kernel cut for one residue pair.
type table struct {
	srcSize, dstSize int // leading and interior padding included
	moves            []move
	steady           bool // both sizes keep their residue: n records are one stride
	same             bool // in place: sizes equal, every move a copy to its own offset
	whole            bool // same, steady and one run end to end: n records are one copy
}

// prims appends the primitives of a fixed-layout type in wire order.
func prims(ps []*mtype.Type, t *mtype.Type) []*mtype.Type {
	switch ut := wire.Unfold(t); ut.Kind() {
	case mtype.KindRecord:
		for _, f := range ut.Fields() {
			ps = prims(ps, f.Type)
		}
	case mtype.KindUnit:
	default:
		ps = append(ps, ut)
	}
	return ps
}

// kernel compiles the kernel of a flattened record pair whose closure
// program already compiled; nil unless every leaf pair is fixed-layout.
func (c *compiler) kernel(flatA, flatB []compare.FlatLeaf, invPerm []int, leafPlans []*plan.Node, dropLead int) *kernel {
	k := &kernel{alignA: 1, alignB: 1}
	var src []*mtype.Type
	first := make([]int, len(flatA)+1)
	for i, leaf := range flatA {
		lay := c.analyze(leaf.Node)
		if !lay.fixed {
			return nil
		}
		src = prims(src, leaf.Node)
		first[i+1] = len(src)
		k.levels = max(k.levels, max(len(leaf.Path)-dropLead, 0)+lay.levels)
		k.alignA = max(k.alignA, lay.align)
	}
	for _, ut := range src {
		k.srcW = append(k.srcW, uint8(c.analyze(ut).align))
	}
	out := func(from int, ub *mtype.Type) {
		m, _ := c.primOp(src[from], ub) // cannot fail: the closure program compiled the pair
		m.srcOff = from
		k.alignB = max(k.alignB, int(m.dstW))
		k.outs = append(k.outs, m)
	}
	for j, bl := range flatB {
		if bl.Unit {
			continue
		}
		i := invPerm[j]
		switch lo, hi := first[i], first[i+1]; {
		case leafPlans[i].Kind == compare.DecSame:
			for p := lo; p < hi; p++ {
				out(p, src[p])
			}
		case leafPlans[i].Kind == compare.DecPrim && hi-lo == 1:
			out(lo, wire.Unfold(bl.Node))
		default:
			return nil
		}
	}
	k.tabs = make([]atomic.Pointer[table], k.alignA*k.alignB)
	return k
}

// identKernel is the kernel of a type converted to itself: its moves
// coalesce to runs between the holes.
func (c *compiler) identKernel(t *mtype.Type) *kernel {
	leaf := []compare.FlatLeaf{{Node: t}}
	return c.kernel(leaf, leaf, []int{0}, []*plan.Node{{Kind: compare.DecSame}}, 0)
}

// at returns the table for the cursor's residues, cutting it on first
// use. Racing cuts build equal tables; either may win.
func (k *kernel) at(x *xctx) *table {
	rs, rd := x.off&(k.alignA-1), x.dstRel()&(k.alignB-1)
	p := &k.tabs[rs*k.alignB+rd]
	t := p.Load()
	if t != nil {
		return t
	}
	offs := make([]int, len(k.srcW))
	off := rs
	for i, w := range k.srcW {
		off = wire.AlignUp(off, int(w))
		offs[i] = off - rs
		off += int(w)
	}
	t = &table{srcSize: off - rs, same: true}
	off = rd
	for _, m := range k.outs {
		off = wire.AlignUp(off, int(m.dstW))
		m.srcOff, m.dstOff = offs[m.srcOff], off-rd
		off += int(m.dstW)
		if m.op != opReal && m.srcW == m.dstW && m.chk.kind == rangeNone {
			m.op, m.n = opCopy, int(m.srcW)
			if l := len(t.moves) - 1; l >= 0 && t.moves[l].op == opCopy &&
				t.moves[l].srcOff+t.moves[l].n == m.srcOff && t.moves[l].dstOff+t.moves[l].n == m.dstOff {
				t.moves[l].n += m.n
				continue
			}
		}
		t.same = t.same && m.op == opCopy && m.srcOff == m.dstOff
		t.moves = append(t.moves, m)
	}
	t.dstSize = off - rd
	t.steady = t.srcSize%k.alignA == 0 && t.dstSize%k.alignB == 0
	t.same = t.same && t.srcSize == t.dstSize
	t.whole = t.same && t.steady && (t.dstSize == 0 || t.moves[0].n == t.dstSize)
	p.Store(t)
	return t
}

// step converts up to n records at the cursor and returns how many it
// took. An in-place copy has no check to fail, so when one stops step
// names the cause, as the bulk copies it replaced did; for any other
// table err stays nil and the caller's closure program reports.
func (k *kernel) step(x *xctx, n int) (done int, err error) {
	if x.depth+k.levels > wire.MaxDecodeDepth {
		if k.at(x).same {
			err = depthErr()
		}
		return 0, err
	}
	for done < n {
		t := k.at(x)
		m := n - done // right for records of units: all complete
		if t.srcSize > 0 {
			m = min(m, (len(x.src)-x.off)/t.srcSize)
		}
		if !t.steady {
			m = min(m, 1)
		}
		if m <= 0 {
			if t.same {
				err = errTruncated
			}
			break
		}
		got := t.run(x, m)
		if done += got; got < m {
			break
		}
	}
	return done, err
}

// strideBlock is how many records one move strides down before the next
// move starts: enough to amortise the dispatch, few enough to stay in L1.
const strideBlock = 128

// run converts m records the input holds whole, growing the destination
// once, and returns how many passed their range checks; the cursor and
// the output end after exactly those.
func (t *table) run(x *xctx, m int) int {
	src := x.src[x.off : x.off+m*t.srcSize]
	if t.whole {
		x.dst = append(x.dst, src...)
		x.off += len(src)
		return m
	}
	start := len(x.dst)
	x.dst = slices.Grow(x.dst, m*t.dstSize)[:start+m*t.dstSize]
	done := 0
	for done < m {
		b := min(m-done, strideBlock)
		good, d := b, x.dst[start+done*t.dstSize:]
		clear(d[:b*t.dstSize]) // the padding; every other byte is about to be written
		for i := range t.moves {
			good = t.moves[i].stride(d, src[done*t.srcSize:], good, t.srcSize, t.dstSize)
		}
		if done += good; good < b {
			break
		}
	}
	x.dst = x.dst[:start+done*t.dstSize]
	x.off += done * t.srcSize
	return done
}

// stride applies one move to n consecutive records, dispatching on width
// and conversion once, outside the loop, and returns how many it took:
// all of them, or those before the first that fails the move's check.
func (m *move) stride(d, s []byte, n, ss, ds int) int {
	so, do, le := m.srcOff, m.dstOff, binary.LittleEndian
	switch {
	case m.op == opCopy && m.n == 8:
		for r := 0; r < n; r, so, do = r+1, so+ss, do+ds {
			le.PutUint64(d[do:], le.Uint64(s[so:]))
		}
	case m.op == opCopy && m.n == 4:
		for r := 0; r < n; r, so, do = r+1, so+ss, do+ds {
			le.PutUint32(d[do:], le.Uint32(s[so:]))
		}
	case m.op == opCopy:
		for r := 0; r < n; r, so, do = r+1, so+ss, do+ds {
			copy(d[do:do+m.n], s[so:])
		}
	default:
		for r := 0; r < n; r, so, do = r+1, so+ss, do+ds {
			u := load(s[so:], m.srcW)
			if m.chk.kind != rangeNone && m.chk.check(u, int(m.srcW)) != nil {
				return r
			}
			switch u = m.conv(u); m.dstW {
			case 1:
				d[do] = byte(u)
			case 2:
				le.PutUint16(d[do:], uint16(u))
			case 4:
				le.PutUint32(d[do:], uint32(u))
			default:
				le.PutUint64(d[do:], u)
			}
		}
	}
	return n
}

func load(b []byte, w uint8) uint64 {
	switch w {
	case 1:
		return uint64(b[0])
	case 2:
		return uint64(binary.LittleEndian.Uint16(b))
	case 4:
		return uint64(binary.LittleEndian.Uint32(b))
	}
	return binary.LittleEndian.Uint64(b)
}

// kernelOr runs one record through the kernel, then — if the kernel
// stopped without naming the cause — through the closure program.
func kernelOr(k *kernel, slow emitFn) emitFn {
	if k == nil {
		return slow
	}
	return func(x *xctx) error {
		if n, err := k.step(x, 1); n == 1 || err != nil {
			return err
		}
		return slow(x)
	}
}
