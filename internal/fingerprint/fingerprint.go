// Package fingerprint computes canonical structural digests of cyclic
// Mtype graphs. The broker keys its shared caches on these digests, so
// that two declarations lowered independently — in different sessions,
// processes, or orderings — key to comparable values without exchanging
// the graphs themselves.
//
// The algorithm is iterative hash refinement (in the style of
// Weisfeiler–Leman color refinement, the same family used for graph
// canonization and bisimulation partitioning): every node starts from a
// label derived from its local shape, and each round replaces a node's
// color with a hash of its previous color, its label, and its children's
// colors. Recursive (μ) nodes are treated equi-recursively — a μ node *is*
// its body — so a graph and any of its unrollings refine to identical
// colors round by round. After a fixed number of rounds the root's colors
// under two independent seeds form the digest.
//
// Two digests are produced in one pass:
//
//   - Canonical: Record and Choice children are combined as a sorted
//     multiset of colors, so the digest is stable under child permutation
//     — the isomorphism the comparer decides modulo (§4 commutativity).
//     Canonical digests key verdict caches: permuted variants of the same
//     pair share one compare result.
//   - Exact: children are combined in declaration order. Exact digests key
//     compiled-converter caches, where field order is load-bearing: a
//     converter compiled for record(int, real) must not serve values of
//     record(real, int).
//
// Both digests are invariant under μ-unrolling and node identity, and
// deterministic across processes (no map iteration, no pointers hashed).
// Like mtype.Fingerprint, regular trees that first differ deeper than the
// refinement round count collide; that is acceptable for a cache key and
// unreachable for declaration-derived types, whose nesting is far
// shallower.
package fingerprint

import (
	"encoding/binary"
	"encoding/hex"
	"slices"

	"repro/internal/mtype"
)

// rounds is the number of refinement iterations. Colors at round k
// distinguish regular trees up to bisimulation depth k; 64 matches the
// truncation depth of mtype.Fingerprint.
const rounds = 64

// Digest is a 16-byte structural fingerprint (two independently seeded
// 64-bit refinement streams).
type Digest [16]byte

// String renders the digest as lowercase hex.
func (d Digest) String() string { return hex.EncodeToString(d[:]) }

// Print is the pair of digests computed for one graph.
type Print struct {
	// Canonical is stable under Record/Choice child permutation.
	Canonical Digest
	// Exact is sensitive to child order.
	Exact Digest
}

// PairKey is the cache key for an ordered pair of digests.
type PairKey [32]byte

// Pair combines two digests into an ordered pair key.
func Pair(a, b Digest) PairKey {
	var k PairKey
	copy(k[:16], a[:])
	copy(k[16:], b[:])
	return k
}

// Of computes both digests of the graph rooted at t. A nil t has a
// distinct well-defined digest.
func Of(t *mtype.Type) Print {
	g := buildGraph(t)
	var p Print
	p.Canonical = g.refine(true)
	p.Exact = g.refine(false)
	return p
}

// Canonical is shorthand for Of(t).Canonical.
func Canonical(t *mtype.Type) Digest { return Of(t).Canonical }

// Exact is shorthand for Of(t).Exact.
func Exact(t *mtype.Type) Digest { return Of(t).Exact }

// graph is the μ-collapsed view of an Mtype graph: only structural and
// primitive nodes, with child edges resolved through Recursive nodes.
type graph struct {
	root int // index of the root node, or -1 for nil/unbound types
	// label is the local shape hash of each node (kind + parameters +
	// child count), identical under both seeds.
	label []uint64
	// children holds child node indices in declaration order.
	children [][]int
	// commutative marks nodes whose children form a multiset (Record,
	// Choice) rather than a sequence.
	commutative []bool
}

// unroll follows Recursive bodies to the first non-μ node. It returns nil
// for nil types, unbound μ nodes, and (non-contractive) all-μ cycles —
// all of which digest to a distinct "bottom" value.
func unroll(t *mtype.Type) *mtype.Type {
	seen := 0
	for t != nil && t.Kind() == mtype.KindRecursive {
		t = t.Body()
		seen++
		if seen > 1<<16 { // non-contractive μ cycle
			return nil
		}
	}
	return t
}

func buildGraph(t *mtype.Type) *graph {
	g := &graph{}
	index := make(map[*mtype.Type]int)
	var walk func(n *mtype.Type) int
	walk = func(n *mtype.Type) int {
		n = unroll(n)
		if n == nil {
			return -1
		}
		if i, ok := index[n]; ok {
			return i
		}
		i := len(g.label)
		index[n] = i
		g.label = append(g.label, 0)
		g.children = append(g.children, nil)
		g.commutative = append(g.commutative, false)

		h := newHash(0x9e3779b97f4a7c15)
		h.mix(uint64(n.Kind()))
		var kids []*mtype.Type
		switch n.Kind() {
		case mtype.KindInteger:
			lo, hi := n.IntegerRange()
			h.mixString(lo.String())
			h.mixString(hi.String())
		case mtype.KindCharacter:
			h.mix(uint64(n.Repertoire()))
		case mtype.KindReal:
			p, e := n.RealParams()
			h.mix(uint64(p))
			h.mix(uint64(e))
		case mtype.KindUnit:
			// kind alone
		case mtype.KindRecord:
			for _, f := range n.Fields() {
				kids = append(kids, f.Type)
			}
			h.mix(uint64(len(kids)))
			g.commutative[i] = true
		case mtype.KindChoice:
			for _, a := range n.Alts() {
				kids = append(kids, a.Type)
			}
			// Salt choices so Record(τ) and Choice(τ) never share a label.
			h.mix(0xC401CE)
			h.mix(uint64(len(kids)))
			g.commutative[i] = true
		case mtype.KindPort:
			kids = []*mtype.Type{n.Elem()}
			h.mix(0x9087)
		}
		g.label[i] = h.sum()

		idx := make([]int, len(kids))
		for j, k := range kids {
			idx[j] = walk(k)
		}
		g.children[i] = idx
		return i
	}
	g.root = walk(t)
	return g
}

// refine runs the fixed number of refinement rounds under two seeds and
// returns the root's final colors as a digest.
func (g *graph) refine(canonical bool) Digest {
	var d Digest
	if g.root < 0 {
		// nil / unbound: a fixed distinguished digest.
		copy(d[:], []byte("mbird:nil-type!!"))
		return d
	}
	seeds := [2]uint64{0xcbf29ce484222325, 0x100000001b3f00d}
	for s, seed := range seeds {
		colors := make([]uint64, len(g.label))
		next := make([]uint64, len(g.label))
		for i := range colors {
			colors[i] = g.label[i] ^ seed
		}
		var scratch []uint64
		for r := 0; r < rounds; r++ {
			for i := range next {
				h := newHash(seed)
				h.mix(colors[i])
				h.mix(g.label[i])
				kids := g.children[i]
				if canonical && g.commutative[i] {
					scratch = scratch[:0]
					for _, c := range kids {
						scratch = append(scratch, childColor(colors, c))
					}
					slices.Sort(scratch)
					for _, cc := range scratch {
						h.mix(cc)
					}
				} else {
					for _, c := range kids {
						h.mix(childColor(colors, c))
					}
				}
				next[i] = h.sum()
			}
			colors, next = next, colors
		}
		binary.LittleEndian.PutUint64(d[8*s:], colors[g.root])
	}
	return d
}

// childColor maps the -1 sentinel (nil / unbound child) to a fixed color.
func childColor(colors []uint64, i int) uint64 {
	if i < 0 {
		return 0xdeadbeefdead
	}
	return colors[i]
}

// hash is a seeded FNV-1a-style 64-bit mixer.
type hash struct{ h uint64 }

const prime64 = 1099511628211

func newHash(seed uint64) *hash { return &hash{h: 14695981039346656037 ^ seed} }

func (x *hash) mix(v uint64) {
	for i := 0; i < 8; i++ {
		x.h ^= v & 0xff
		x.h *= prime64
		v >>= 8
	}
}

func (x *hash) mixString(s string) {
	for i := 0; i < len(s); i++ {
		x.h ^= uint64(s[i])
		x.h *= prime64
	}
	// Terminator so "ab","c" and "a","bc" differ.
	x.h ^= 0xff
	x.h *= prime64
}

func (x *hash) sum() uint64 { return x.h }
