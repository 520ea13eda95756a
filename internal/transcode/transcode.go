// Package transcode compiles coercion plans into direct CDR-bytes →
// CDR-bytes transcoders: the fuse philosophy (§4 of the paper) applied
// to the network data plane. Where the tree engine decodes the source
// bytes into a value.Value tree, converts it, and re-encodes — allocating
// on every node — a compiled transcoder moves bytes straight from the
// source buffer to the destination buffer, using precomputed per-type
// layout programs so identity-shaped regions become bulk copies and
// permuted records become offset-table shuffles.
//
// Like internal/fuse, the compiler handles the common structural core —
// primitives (including widening numeric coercions), records (commutative
// permutation and associative flattening via the plan), sequences,
// strings, choices, injections, and ports — and refuses the rest with a
// wrapped ErrUnsupported, from one closed table (refusal_test.go holds a
// pair for each row): a semantic hook; a sequence against a cons chain; a
// subtype that moves a list's tail into a head; an integer wider than 64
// bits; a real wider than binary64; μ binders nested past wire.Unfold.
// The ladder a payload then descends lives in the Transcoder, not in
// whoever holds it:
//
//	rung                      built by  one-shot               internal/stream
//	stride kernel, list root  Compile   table moves            chunk-at-a-time
//	closure program, list     Compile   one call per element   chunk-at-a-time
//	closure program, other    Compile   one call               buffered, capped
//	tree (Refusal() != "")    Tree      decode→convert→encode  buffered, capped
//
// core.Session.BuildTranscoder is the one assembler: Compile, and on
// ErrUnsupported only, Tree over the closure-compiled converter.
//
// Compiled transcoders replicate the tree path bit for bit: they perform
// the same validation (depth budgets, integer ranges, discriminant and
// length bounds, truncation, full consumption) and the same byte
// canonicalization (zeroed padding, binary32 NaN quieting), which the
// differential fuzz oracle in this package enforces.
package transcode

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/compare"
	"repro/internal/convert"
	"repro/internal/limits"
	"repro/internal/mtype"
	"repro/internal/plan"
	"repro/internal/wire"
)

// ErrUnsupported marks a plan construct outside the transcoder's fused
// subset, one of the rows the package comment lists; a Transcoder's
// Refusal carries which. Tree serves such a pair (decode→convert→encode);
// results are identical, only slower.
var ErrUnsupported = errors.New("transcode: construct not supported by the wire transcoder")

func unsupported(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrUnsupported}, args...)...)
}

// xctx is the per-call mutable state threaded through compiled emit
// programs. Instances are pooled on the Transcoder; arena is reused
// scratch for record offset tables, sized by the layout program's hints.
type xctx struct {
	src   []byte
	dst   []byte
	base  int // alignment base: start of the output value within dst
	off   int // read cursor, alignment-relative to src[0]
	depth int
	arena []int
}

func (x *xctx) grabSpans(n int) ([]int, int) {
	mark := len(x.arena)
	if mark+n <= cap(x.arena) {
		x.arena = x.arena[:mark+n]
	} else {
		x.arena = append(x.arena, make([]int, n)...)
	}
	return x.arena[mark : mark+n], mark
}

func (x *xctx) dstRel() int { return len(x.dst) - x.base }

// emitFn transcodes one value: reads src at x.off, appends the converted
// bytes to x.dst, and advances x.off. x.depth is the depth wire.decode
// would be called with for this value; every emitFn performs the same
// entry budget check decode does.
type emitFn func(x *xctx) error

type emitSlot struct{ fn emitFn }

type tripleKey struct {
	n    *plan.Node
	a, b *mtype.Type
}

type identKey struct{ a, b *mtype.Type }

type compiler struct {
	pairs     map[tripleKey]*emitSlot
	idents    map[identKey]*emitSlot
	skips     map[*mtype.Type]*skipSlot
	lays      map[*mtype.Type]*layout
	maxLeaves int
}

func newCompiler() *compiler {
	return &compiler{
		pairs:  make(map[tripleKey]*emitSlot),
		idents: make(map[identKey]*emitSlot),
		skips:  make(map[*mtype.Type]*skipSlot),
		lays:   make(map[*mtype.Type]*layout),
	}
}

// Transcoder converts CDR bytes of the source Mtype directly into CDR
// bytes of the destination Mtype. Safe for concurrent use.
type Transcoder struct {
	root      emitFn
	pool      sync.Pool
	outEst    int
	outExact  bool
	arenaHint int

	// Sequence streaming support (see seq.go): when both declared types
	// are list-shaped and the per-element conversion compiles, seqElem is
	// the element program and seqKern the stride kernel of a fixed-layout
	// element (nil otherwise). Populated by Compile.
	seqElem emitFn
	seqKern *kernel
	refusal string // why Compile refused the pair Tree built this for
}

// Compile fuses a coercion plan with the declared source and destination
// Mtypes into a wire transcoder. a and b must be the types the plan was
// built for (plan nodes store unfolded types; the declared types are
// needed because the wire format distinguishes μ-list nodes, encoded as
// sequences, from their structurally identical unfoldings, encoded as
// cons chains). Returns a wrapped ErrUnsupported when the plan uses
// constructs outside the fused subset.
func Compile(p *plan.Plan, a, b *mtype.Type) (*Transcoder, error) {
	if p == nil || p.Root == nil {
		return nil, fmt.Errorf("transcode: nil plan")
	}
	c := newCompiler()
	if wire.Unfold(a) != p.Root.A || wire.Unfold(b) != p.Root.B {
		// A root under more binders than wire.Unfold looks through matches
		// no node; analyze refuses it, and the pair takes the tree rung.
		if err := c.refusal(a, b); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("transcode: declared types do not match plan root")
	}
	for _, n := range p.Nodes {
		if n.Kind == compare.DecSemantic {
			return nil, unsupported("semantic hook %q requires the tree engine", n.Hook)
		}
	}
	root, err := c.pair(p.Root, a, b)
	if err != nil {
		return nil, err
	}
	est, exact := wire.EstimateSize(b)
	t := &Transcoder{
		root:     root,
		outEst:   est,
		outExact: exact,
	}
	// A list-shaped root (both sides are, or pair refused it) exposes its
	// per-element program so internal/stream can run the sequence
	// chunk-at-a-time; the one-shot program above compiled the same parts.
	if elemA, ok := mtype.ListElem(a); ok {
		elemB, _ := mtype.ListElem(b)
		t.seqElem, t.seqKern, _ = c.listParts(p.Root, elemA, elemB)
	}
	t.arenaHint = c.maxLeaves * 4
	t.pool.New = func() any { return &xctx{arena: make([]int, 0, t.arenaHint)} }
	return t, nil
}

// Tree is the ladder's last rung: the transcoder of a pair Compile
// refused with the given text. Its whole program is convert.TranscodeTree
// over c, the pair's tree converter with hooks resolved: same accepts,
// same rejects, same bytes as a fused program, and it never streams.
func Tree(a, b *mtype.Type, c convert.Converter, refusal string) *Transcoder {
	t := &Transcoder{refusal: refusal}
	t.outEst, t.outExact = wire.EstimateSize(b)
	t.root = func(x *xctx) (err error) {
		x.dst, err = convert.TranscodeTree(x.dst, a, b, c, x.src)
		x.off = len(x.src)
		return err
	}
	t.pool.New = func() any { return new(xctx) }
	return t
}

// Refusal is the fuser's reason when the tree rung serves the pair, and
// empty for a fused program.
func (t *Transcoder) Refusal() string { return t.refusal }

// Transcode converts one encoded value, returning a freshly allocated
// output buffer. The input must be fully consumed, mirroring
// wire.Unmarshal.
func (t *Transcoder) Transcode(src []byte) ([]byte, error) {
	hint := t.outEst
	if !t.outExact && len(src) > hint {
		hint = len(src) + len(src)/2
	}
	out, err := t.TranscodeAppend(make([]byte, 0, hint), src)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// TranscodeAppend converts one encoded value and appends the output to
// dst, returning the extended slice; alignment is relative to len(dst)
// at entry. On error the returned slice is dst truncated to its original
// length. Reusing dst across calls gives a zero-allocation steady state.
func (t *Transcoder) TranscodeAppend(dst, src []byte) ([]byte, error) {
	x := t.pool.Get().(*xctx)
	x.src, x.dst, x.base, x.off, x.depth = src, dst, len(dst), 0, 0
	err := t.root(x)
	if err == nil && x.off != len(src) {
		err = fmt.Errorf("transcode: %d trailing bytes", len(src)-x.off)
	}
	out := x.dst
	x.src, x.dst = nil, nil
	x.arena = x.arena[:0]
	t.pool.Put(x)
	if err != nil {
		return dst[:len(dst):len(dst)], err
	}
	return out, nil
}

// pair compiles the conversion for one plan node applied to a declared
// type pair. The triple key matters: one plan node (keyed on unfolded
// types) can be reached through different declared types with different
// wire encodings.
func (c *compiler) pair(n *plan.Node, tA, tB *mtype.Type) (emitFn, error) {
	key := tripleKey{n, tA, tB}
	if s, ok := c.pairs[key]; ok {
		if s.fn == nil {
			return func(x *xctx) error { return s.fn(x) }, nil
		}
		return s.fn, nil
	}
	s := &emitSlot{}
	c.pairs[key] = s
	fn, err := c.pairNew(n, tA, tB)
	if err != nil {
		return nil, err
	}
	s.fn = fn
	return fn, nil
}

// pairNew dispatches on the plan node's kind. What plan.Build guarantees
// of a node — a known kind, its children present, an injective
// permutation sourcing every destination leaf, an alternative map as long
// as the alternatives — is held by the plan package's law test, not
// re-checked here; Compile has already refused semantic hooks.
func (c *compiler) pairNew(n *plan.Node, tA, tB *mtype.Type) (emitFn, error) {
	elemA, listA := mtype.ListElem(tA)
	elemB, listB := mtype.ListElem(tB)
	if listA != listB {
		// A sequence against its own unfolding, a record holding one, or a
		// value injected into one: the plan sees a cons chain where the
		// wire has a count-prefixed sequence.
		return nil, unsupported("sequence vs cons-chain encoding mix")
	}
	switch n.Kind {
	case compare.DecSame:
		return c.ident(tA, tB)
	case compare.DecPrim:
		return c.primEmit(tA, tB)
	case compare.DecPort:
		return portEmit(), nil
	case compare.DecRecord:
		slow, k, err := c.record(n.FlatA, n.FlatB, n.Perm, n.LeafPlans, 0)
		return kernelOr(k, slow), err
	case compare.DecInject:
		altB := n.B.Alts()[n.AltMap[0]].Type
		inner, err := c.pair(n.InjectPlan, tA, altB)
		if err != nil {
			return nil, err
		}
		disc := uint64(n.AltMap[0])
		return func(x *xctx) error {
			x.dst = wire.AppendUint(x.dst, x.base, 4, disc)
			return inner(x)
		}, nil
	default: // compare.DecChoice
		if listA {
			elem, k, err := c.listParts(n, elemA, elemB)
			if err != nil {
				return nil, err
			}
			return listEmit(elem, k), nil
		}
		return c.choicePair(n)
	}
}

// choicePair compiles a discriminant-remapping union conversion.
func (c *compiler) choicePair(n *plan.Node) (emitFn, error) {
	altsA, altsB := n.A.Alts(), n.B.Alts()
	subs := make([]emitFn, len(altsA))
	remap := make([]uint64, len(altsA))
	for i, j := range n.AltMap {
		fn, err := c.pair(n.AltPlans[i], altsA[i].Type, altsB[j].Type)
		if err != nil {
			return nil, err
		}
		subs[i], remap[i] = fn, uint64(j)
	}
	return choiceEmit(subs, remap), nil
}

// choiceEmit builds a union conversion: a value of alternative i converts
// by subs[i] and is written under discriminant remap[i].
func choiceEmit(subs []emitFn, remap []uint64) emitFn {
	return func(x *xctx) error {
		if x.depth > wire.MaxDecodeDepth {
			return depthErr()
		}
		disc, off, err := wire.ReadUint(x.src, x.off, 4)
		if err != nil {
			return err
		}
		if disc >= uint64(len(subs)) {
			return discErr(disc, len(subs))
		}
		x.off = off
		x.dst = wire.AppendUint(x.dst, x.base, 4, remap[disc])
		x.depth++
		err = subs[disc](x)
		x.depth--
		return err
	}
}

// listParts compiles the per-element program of a list-shaped DecSame or
// DecChoice plan, returning the element emitter and, when the element
// pair is fixed-layout, its stride kernel. The wire encodes
// μL.Choice(Unit, Record(τ,L)) as a count plus elements, so the element
// program is the cons record conversion restricted to its head leaves.
// Shared by pairNew (which wraps it in listEmit's count-prefixed loop)
// and Compile's streaming probe (which exposes it to SeqStep).
func (c *compiler) listParts(n *plan.Node, elemA, elemB *mtype.Type) (emitFn, *kernel, error) {
	cons := n
	if n.Kind == compare.DecChoice {
		cons = n.AltPlans[1] // a list choice maps nil to nil and cons to cons
	}
	if cons.Kind == compare.DecSame {
		elem, err := c.ident(elemA, elemB)
		return elem, c.identKernel(elemA), err
	}
	return c.consElem(cons)
}

// consElem derives the per-element conversion from a cons-cell record
// plan. A cons cell flattens to its head's leaves, then the tail (path
// [1]); when the tail maps to its counterpart, the head leaves form an
// ordinary record shuffle. Leaf paths lose their leading head index so
// depth accounting matches wire.decode of the element type itself.
func (c *compiler) consElem(cons *plan.Node) (emitFn, *kernel, error) {
	tailA, tailB := len(cons.FlatA)-1, len(cons.FlatB)-1
	if cons.Perm[tailA] != tailB {
		// Only a subtype match gets here: its augmenting paths may hand a
		// list's tail to a head leaf that is a list too.
		return nil, nil, unsupported("cons tail does not map to tail")
	}
	return c.record(cons.FlatA[:tailA], cons.FlatB[:tailB], cons.Perm[:tailA], cons.LeafPlans[:tailA], 1)
}

// listEmit builds the sequence loop. A fixed-layout element pair brings
// its stride kernel, and the element program runs only on the element
// the kernel stopped at (for strings and scalar arrays the table is a
// single run: one bounds-checked copy).
func listEmit(elem emitFn, k *kernel) emitFn {
	return func(x *xctx) error {
		if x.depth > wire.MaxDecodeDepth {
			return depthErr()
		}
		n64, off, err := wire.ReadUint(x.src, x.off, 4)
		if err != nil {
			return err
		}
		if n64 > wire.MaxListLen {
			return limits.Exceededf("transcode: list length %d exceeds limit of %d", n64, wire.MaxListLen)
		}
		x.off = off
		x.dst = wire.AppendUint(x.dst, x.base, 4, n64)
		n := int(n64)
		if n == 0 {
			return nil
		}
		x.depth++
		done := 0
		if k != nil {
			// A sequence that enters on a whole-record copy has always
			// reported its own end; any other leaves it to the element.
			entry := k.at(x)
			if done, err = k.step(x, n); !entry.whole {
				err = nil
			}
		}
		for ; done < n && err == nil; done++ {
			err = elem(x)
		}
		x.depth--
		return err
	}
}

func portEmit() emitFn {
	return func(x *xctx) error {
		if x.depth > wire.MaxDecodeDepth {
			return depthErr()
		}
		n, off, err := wire.ReadUint(x.src, x.off, 4)
		if err != nil {
			return err
		}
		if uint64(off)+n > uint64(len(x.src)) {
			return fmt.Errorf("transcode: %w (port reference)", wire.ErrShort)
		}
		x.dst = wire.AppendUint(x.dst, x.base, 4, n)
		x.dst = append(x.dst, x.src[off:off+int(n)]...)
		x.off = off + int(n)
		return nil
	}
}

// primOp resolves a primitive pair to the move that converts it — widths,
// conversion, range check, all decided by analyze — for primEmit and the
// stride kernel's tables alike, replicating the tree path's
// read-validate-write chain so output bytes, NaN canonicalization and
// sign extension included, match.
func (c *compiler) primOp(ta, tb *mtype.Type) (move, error) {
	if err := c.refusal(ta, tb); err != nil {
		return move{}, err
	}
	la, lb := c.analyze(ta), c.analyze(tb)
	m := move{srcW: uint8(la.align), dstW: uint8(lb.align), op: la.op, chk: la.rng}
	if m.op == opReal && m.srcW == 8 && m.dstW == 8 {
		m.op = opZext
	}
	return m, nil
}

// primEmit compiles a primitive-to-primitive conversion.
func (c *compiler) primEmit(tA, tB *mtype.Type) (emitFn, error) {
	m, err := c.primOp(tA, tB)
	if err != nil {
		return nil, err
	}
	sa, sb := int(m.srcW), int(m.dstW)
	return func(x *xctx) error {
		if x.depth > wire.MaxDecodeDepth {
			return depthErr()
		}
		u, off, err := wire.ReadUint(x.src, x.off, sa)
		if err != nil {
			return err
		}
		if err := m.chk.check(u, sa); err != nil {
			return err
		}
		x.off = off
		x.dst = wire.AppendUint(x.dst, x.base, sb, m.conv(u))
		return nil
	}, nil
}

// conv applies the move's conversion to a value read from srcW bytes.
func (m *move) conv(u uint64) uint64 {
	switch m.op {
	case opSext:
		shift := uint(64 - 8*m.srcW)
		return uint64(int64(u<<shift) >> shift)
	case opReal:
		return realBits(u, int(m.srcW), int(m.dstW))
	}
	return u
}

// realBits converts a real sa bytes wide to one sb bytes wide through
// float64, as the tree engine does: a binary32 sNaN comes out quieted.
func realBits(u uint64, sa, sb int) uint64 {
	f := math.Float64frombits(u)
	if sa == 4 {
		f = float64(math.Float32frombits(uint32(u)))
	}
	if sb == 4 {
		return uint64(math.Float32bits(float32(f)))
	}
	return math.Float64bits(f)
}
