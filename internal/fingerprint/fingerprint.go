// Package fingerprint computes canonical structural digests of cyclic
// Mtype graphs. The broker keys its shared caches on these digests, so
// that two declarations lowered independently — in different sessions,
// processes, or orderings — key to comparable values without exchanging
// the graphs themselves.
//
// A digest names a bisimulation class. Recursive (μ) nodes are treated
// equi-recursively — a μ node *is* its body — so equality of types is
// bisimilarity of graphs (Amadio–Cardelli), and the digest is taken from
// the graph's bisimulation quotient, which a graph shares with all of its
// unrollings:
//
//  1. Partition refinement. A node starts from a colour derived from its
//     local shape (kind, parameters, child count), and a round replaces
//     each colour with a hash of itself and the children's colours. Rounds
//     only split classes, so the first round that leaves their number
//     unchanged has found the coarsest stable partition: the bisimulation
//     classes. That takes at most depth+1 rounds (3–8 on the synthesized
//     suites), and the classes after k rounds are the distinct depth-k
//     truncations of the unfolding, so every presentation of a type stops
//     at the same round, on the same colours.
//  2. Quotient serialisation. A depth-first walk from the root numbers the
//     classes in visiting order and hashes, at 128 bits, each class's
//     shape followed by its children's class numbers (a class first met
//     is marked and expanded in place). The stream determines the quotient
//     up to isomorphism, so equal digests mean bisimilar graphs, however
//     deep their first difference.
//
// Stopping at the stable round and taking the root's colour for the
// digest is unsound: a colour after k rounds sees depth k from the root,
// and μX.Choice(Unit, Record(τ, X)) is stable after one round for every
// τ, so list<int32> and list<float32> collide. TestDeepLeaves is the
// witness.
//
// Two digests come from one graph build:
//
//   - Canonical: Record and Choice children are a multiset — their colours
//     combine sorted, and the walk visits them in class order — so the
//     digest is stable under child permutation, the isomorphism the
//     comparer decides modulo (§4 commutativity). Canonical digests key
//     verdict caches: permuted variants of one pair share a compare result.
//   - Exact: children combine and are visited in declaration order. Exact
//     digests key compiled-converter caches, where field order is
//     load-bearing: a converter compiled for record(int, real) must not
//     serve values of record(real, int). Its refinement starts from the
//     Canonical classes, which it can only split, and mostly ends at once.
//
// Both are deterministic across processes (no map iteration, no pointers
// hashed), and no wire carries one: a changed digest function costs cold
// caches at restart, and re-homes a fleet's routes once.
package fingerprint

import (
	"cmp"
	"encoding/binary"
	"encoding/hex"
	"slices"

	"repro/internal/mtype"
)

// Digest is a 16-byte structural fingerprint.
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
	g := &graph{index: make(map[*mtype.Type]int32)}
	root := g.add(t)
	if root < 0 {
		// nil / unbound: a fixed distinguished digest.
		var d Digest
		copy(d[:], "mbird:nil-type!!")
		return Print{d, d}
	}
	g.start = append(g.start, int32(len(g.kids)))
	n := len(g.shape)
	g.colour, g.next, g.sorted = make([]uint64, n), make([]uint64, n), make([]uint64, 0, n)
	for i, s := range g.shape {
		g.colour[i] = s.a
	}
	canonical := g.digest(root, g.refine(g.distinct(), true), true)
	// Exact refinement goes on from the Canonical classes.
	return Print{canonical, g.digest(root, g.refine(len(g.sorted), false), false)}
}

// Canonical is shorthand for Of(t).Canonical.
func Canonical(t *mtype.Type) Digest { return Of(t).Canonical }

// Exact is shorthand for Of(t).Exact.
func Exact(t *mtype.Type) Digest { return Of(t).Exact }

// graph is the μ-collapsed view of an Mtype graph: only structural and
// primitive nodes, with child edges resolved through Recursive nodes.
// Node i's children are kids[start[i]:start[i+1]], in declaration order;
// -1 stands for a nil or unbound child.
type graph struct {
	index map[*mtype.Type]int32
	// shape is the 128-bit hash of each node's kind, parameters and child
	// count.
	shape []hash
	// commutative marks nodes whose children form a multiset (Record,
	// Choice) rather than a sequence.
	commutative []bool
	start, kids []int32
	// colour is the current partition; next and sorted are refinement
	// scratch. After distinct, sorted holds the distinct colours ascending.
	colour, next, sorted []uint64
	// The quotient walk: class is each node's class (the rank of its colour
	// among the distinct ones, which no presentation of the type changes),
	// number each class's place in visiting order or -1, order the child
	// lists the walk follows, sum its running hash.
	class, number, order []int32
	visited              int32
	sum                  hash
}

// unroll follows Recursive bodies to the first non-μ node. It returns nil
// for nil types, unbound μ nodes, and (non-contractive) all-μ cycles —
// all of which digest to a distinct "bottom" value.
func unroll(t *mtype.Type) *mtype.Type {
	for seen := 0; t != nil && t.Kind() == mtype.KindRecursive; seen++ {
		if seen > 1<<16 { // non-contractive μ cycle
			return nil
		}
		t = t.Body()
	}
	return t
}

// add returns the index of n's node, adding it and everything reachable
// from it on first sight.
func (g *graph) add(n *mtype.Type) int32 {
	if n = unroll(n); n == nil {
		return -1
	}
	if i, ok := g.index[n]; ok {
		return i
	}
	i := int32(len(g.shape))
	g.index[n] = i
	h := hash{seedA, seedB}
	h.mix(uint64(n.Kind()))
	switch n.Kind() {
	case mtype.KindInteger:
		if lo, hi, signed, ok := n.IntegerWords(); !ok {
			// Wider than 64 bits; no declaration lowers to such a range.
			lo, hi := n.IntegerRange()
			for _, b := range []byte(lo.String() + ".." + hi.String()) {
				h.mix(uint64(b))
			}
		} else {
			if signed {
				h.mix(markSigned)
			}
			h.mix(lo)
			h.mix(hi)
		}
	case mtype.KindCharacter:
		h.mix(uint64(n.Repertoire()))
	case mtype.KindReal:
		p, e := n.RealParams()
		h.mix(uint64(p))
		h.mix(uint64(e))
	}
	kids := n.Children()
	h.mix(uint64(len(kids)))
	off := len(g.kids)
	g.shape = append(g.shape, h)
	g.commutative = append(g.commutative, n.Kind() != mtype.KindPort)
	g.start = append(g.start, int32(off))
	g.kids = append(g.kids, make([]int32, len(kids))...)
	for j, k := range kids {
		c := g.add(k) // may move g.kids
		g.kids[off+j] = c
	}
	return i
}

// refine splits the partition held in colour, of the given number of
// classes, until a round splits nothing, and returns the class count. It
// leaves the stable colours in colour and the distinct ones in sorted.
func (g *graph) refine(classes int, canonical bool) int {
	for {
		for i := range g.next {
			h := mix(seedA, g.colour[i])
			kids := g.kids[g.start[i]:g.start[i+1]]
			if canonical && g.commutative[i] && len(kids) > 1 {
				g.sorted = g.sorted[:0]
				for _, k := range kids {
					g.sorted = append(g.sorted, g.childColour(k))
				}
				slices.Sort(g.sorted)
				for _, c := range g.sorted {
					h = mix(h, c)
				}
			} else {
				for _, k := range kids {
					h = mix(h, g.childColour(k))
				}
			}
			g.next[i] = h
		}
		g.colour, g.next = g.next, g.colour
		n := g.distinct()
		if n == classes {
			return n
		}
		classes = n
	}
}

// childColour maps the -1 sentinel (nil / unbound child) to a fixed colour.
func (g *graph) childColour(k int32) uint64 {
	if k < 0 {
		return markNil
	}
	return g.colour[k]
}

// distinct counts the classes of colour, leaving the distinct colours
// ascending in sorted.
func (g *graph) distinct() int {
	g.sorted = append(g.sorted[:0], g.colour...)
	slices.Sort(g.sorted)
	g.sorted = slices.Compact(g.sorted)
	return len(g.sorted)
}

// digest hashes the quotient of the stable partition in colour, walked
// from the root: canonical visits the children of commutative nodes in
// class order, otherwise all children are visited as declared.
func (g *graph) digest(root int32, classes int, canonical bool) Digest {
	n := len(g.colour)
	buf := make([]int32, n+classes)
	g.class, g.number, g.order, g.visited, g.sum = buf[:n], buf[n:], g.kids, 0, hash{seedA, seedB}
	for i, c := range g.colour {
		rank, _ := slices.BinarySearch(g.sorted, c)
		g.class[i] = int32(rank)
	}
	for i := range g.number {
		g.number[i] = -1
	}
	if canonical {
		g.order = slices.Clone(g.kids)
		for i, comm := range g.commutative {
			if kids := g.order[g.start[i]:g.start[i+1]]; comm && len(kids) > 1 {
				slices.SortFunc(kids, func(x, y int32) int { return cmp.Compare(g.rank(x), g.rank(y)) })
			}
		}
	}
	g.visit(root)
	var d Digest
	binary.LittleEndian.PutUint64(d[:8], mix(g.sum.a, uint64(classes)))
	binary.LittleEndian.PutUint64(d[8:], mix(g.sum.b, uint64(classes)))
	return d
}

// rank orders children for the canonical walk: nil first, then by class.
func (g *graph) rank(k int32) int32 {
	if k < 0 {
		return -1
	}
	return g.class[k]
}

// visit numbers node i's class and emits its shape, then its children: a
// class already numbered as its number, a new one as a mark and its visit.
func (g *graph) visit(i int32) {
	g.number[g.class[i]] = g.visited
	g.visited++
	g.sum.mix(g.shape[i].a)
	g.sum.mix(g.shape[i].b)
	for _, k := range g.order[g.start[i]:g.start[i+1]] {
		switch {
		case k < 0:
			g.sum.mix(markNil)
		case g.number[g.class[k]] >= 0:
			g.sum.mix(uint64(g.number[g.class[k]]))
		default:
			g.sum.mix(markNew)
			g.visit(k)
		}
	}
}

// hash is a 128-bit running hash: two multiply–xorshift lanes over the
// same words.
type hash struct{ a, b uint64 }

const (
	seedA, seedB = 0x9e3779b97f4a7c15, 0xc2b2ae3d27d4eb4f
	mulB         = 0xd6e8feb86659fd93
	// Words no class number or colour-free field takes.
	markNil, markNew, markSigned = ^uint64(0), ^uint64(1), ^uint64(2)
)

// mix folds v into the 64-bit state h.
func mix(h, v uint64) uint64 {
	h = (h ^ v) * 0xff51afd7ed558ccd
	return h ^ h>>32
}

func (x *hash) mix(v uint64) {
	x.a = mix(x.a, v)
	b := (x.b ^ v) * mulB
	x.b = b ^ b>>29
}
