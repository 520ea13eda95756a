// Package compare implements the Mockingbird Comparer (§4): deciding
// equivalence and subtyping of possibly cyclic Mtype graphs, extended with
// isomorphism rules that make matching flexible:
//
//   - associativity: records nested directly inside records flatten, so
//     Record(Record(R,R), Record(R,R)) matches Record(R,R,R,R);
//   - commutativity: Record and Choice children match as multisets, so
//     Record(Integer, Record(Real, Character)) matches
//     Record(Character, Real, Integer) — the paper's own example;
//   - unit elimination: Unit is the identity of Record, so void-like
//     members never block a match.
//
// The core algorithm is coinductive equivalence in the style of Amadio &
// Cardelli [TOPLAS'93]: a pair of types assumed equal when re-encountered
// on the current proof path is equal (greatest fixpoint), which handles
// the cyclic graphs produced by recursive declarations. Failures are
// cached globally (assumptions only ever help, so a failure under
// assumptions is a real failure); successes are cached only when their
// proof used no coinductive assumption, or when the assumptions they used
// were discharged by an enclosing successful proof.
//
// Alongside the boolean answer the comparer records a Decision for every
// matched pair — which flattened record leaf maps to which, which choice
// alternative to which — forming the structural correspondence that the
// coercion planner consumes (§4: "it saves information about structural
// correspondences between the Mtypes for use by the Stub Generator").
package compare

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"unsafe"

	"repro/internal/mtype"
)

// Rules selects the isomorphism rules in force. The zero value disables
// everything except plain structural recursion; use DefaultRules for the
// full Mockingbird rule set. Individual rules exist so the ablation
// benchmarks can measure what each contributes.
type Rules struct {
	// Associativity flattens records nested directly inside records.
	Associativity bool
	// Commutativity matches record and choice children as multisets.
	Commutativity bool
	// UnitElimination treats Unit as the identity of Record.
	UnitElimination bool
	// Cache memoizes verdicts within one Comparer, across its Equivalent
	// and Subtype calls.
	Cache bool
}

// DefaultRules returns the full rule set used by the tool.
func DefaultRules() Rules {
	return Rules{Associativity: true, Commutativity: true, UnitElimination: true, Cache: true}
}

// Mode distinguishes the two relations the Comparer decides.
type Mode uint8

// Comparison modes.
const (
	// ModeEqual decides two-way interconvertibility.
	ModeEqual Mode = iota + 1
	// ModeSubtype decides one-way convertibility from left to right.
	ModeSubtype
)

// String names the mode.
func (m Mode) String() string {
	if m == ModeEqual {
		return "equal"
	}
	return "subtype"
}

// DecisionKind classifies a recorded correspondence.
type DecisionKind uint8

// Decision kinds.
const (
	// DecSame marks a pair of identical nodes (identity conversion).
	DecSame DecisionKind = iota + 1
	// DecPrim marks matched primitive Mtypes.
	DecPrim
	// DecRecord marks matched record-like pairs with a leaf permutation.
	DecRecord
	// DecChoice marks matched choices with an alternative mapping.
	DecChoice
	// DecPort marks matched ports.
	DecPort
	// DecInject marks a subtype match of a non-choice into one
	// alternative of a choice (e.g. τ <: Choice(Unit, τ), the
	// value-where-nullable-expected rule).
	DecInject
	// DecSemantic marks a pair accepted because the programmer registered
	// a hand-written conversion between the two declarations — §6's
	// "composing these programmer-supplied conversions with Mockingbird's
	// structural ones" (e.g. a slope/intercept line vs. a two-points
	// line, which no structural rule can relate).
	DecSemantic
)

// FlatLeaf is one leaf of a flattened record: the index path from the
// record node (through nested records) and the leaf node itself.
type FlatLeaf struct {
	Path []int
	Node *mtype.Type
	// Unit records that the leaf unfolds to Unit and was eliminated from
	// matching.
	Unit bool
}

// Decision is the recorded correspondence for one matched pair of nodes.
// The planner and converter navigate values with it.
type Decision struct {
	Kind DecisionKind
	A, B *mtype.Type

	// DecRecord: the flattened leaves of each side and the permutation.
	// Perm[i] is the FlatB index matched by non-unit FlatA leaf i, and -1
	// for unit leaves.
	FlatA, FlatB []FlatLeaf
	Perm         []int

	// DecChoice: AltMap[i] is the B alternative matched by A alternative
	// i. DecInject: AltMap[0] is the B alternative A injects into.
	AltMap []int

	// DecSemantic: the registered hook name.
	Hook string
}

type pairKey struct {
	a, b *mtype.Type
	mode Mode
}

// pairState is everything the comparer knows about one pair. compare
// looks it up once per step and hands it down, so a step costs one hash.
type pairState struct {
	proven, failed bool
	// onPath is the coinductive hypothesis: the pair is being proved
	// further up the current proof path.
	onPath bool
	// why, x and y are the first failure recorded for the pair, rendered
	// only when FailureReason or Explain asks.
	why  uint8
	x, y int
	dec  *Decision
}

// Failure reasons; whyText renders them from x and y or from the pair's nodes.
const (
	whyNone uint8 = iota
	whyKinds
	whyInteger
	whyCharacter
	whyReal
	whyPort
	whyTooWide
	whyLeafCount
	whyLeaf
	whyNoPermutation
	whyAltCount
	whyMoreAlts
	whyAlt
	whyNoAltMapping
)

var whyText = [...]string{
	whyKinds:         "kinds differ: %s vs %s",
	whyInteger:       "integer ranges: [%s..%s] vs [%s..%s]",
	whyCharacter:     "character repertoires: %s vs %s",
	whyReal:          "real precision: (%d,%d) vs (%d,%d)",
	whyPort:          "port elements differ",
	whyTooWide:       "record too wide to flatten (budget exceeded); restructure or pass large aggregates by reference",
	whyLeafCount:     "record leaf counts differ: %d vs %d",
	whyLeaf:          "record leaf %d does not match leaf %d",
	whyNoPermutation: "no permutation of record leaves matches",
	whyAltCount:      "choice alternative counts differ: %d vs %d",
	whyMoreAlts:      "choice has more alternatives: %d vs %d",
	whyAlt:           "choice alternative %d does not match",
	whyNoAltMapping:  "no mapping of choice alternatives matches",
}

// flattening is the memoized result of flattening one node: its leaves,
// and how many of them are live (not eliminated as units).
type flattening struct {
	leaves []FlatLeaf
	live   int
	err    error
}

// class is one class of partition: its first member's key and index,
// its next free and its last member, and how many members are left.
type class struct {
	key                   primKey
	rep, next, last, left int32
	wide                  bool
}

// Comparer decides Mtype relations and accumulates correspondence
// decisions. It is not safe for concurrent use.
type Comparer struct {
	rules Rules
	// pairs is the one table of pair states, its entries carved from slab.
	pairs map[pairKey]*pairState
	slab  []pairState
	// flat memoizes flatten. Flattenings, decisions and their slices are
	// carved from the arenas after it, in chunks sized from n, the node
	// count of the first comparison's graphs.
	n      int
	flat   map[*mtype.Type]*flattening
	flats  []flattening
	decs   []Decision
	leaves []FlatLeaf
	ints   []int
	// scratch holds the matchers' stacks; run lends it from a pool.
	scratch
	// semantic maps tag pairs to hook names: pairs of nodes carrying
	// these tags match by fiat, converted by the named programmer hook.
	semantic map[[2]string]string
	// semanticTags holds every tag that appears in a registration:
	// flattening must not dissolve such records, or the pair would never
	// be compared as a unit.
	semanticTags map[string]bool

	// runs are the comparisons run made, by mode. A diagnosis of a mode
	// replays that mode's runs on its replay, a comparer whose diag flag
	// gives each pair refused at its first step an entry too. late is set
	// by a registration made after runs: from then on every probe takes an
	// entry, and no run is replayed.
	runs   [2][]pairKey
	replay [2]*Comparer
	diag   bool
	late   bool

	steps int
}

// scratch is the matchers' stacks: a matcher pushes what it needs and
// truncates back on return, so a nested match works above it. path is
// flatten's. No Match reads them, so they go back to scratchPool when a
// comparison ends.
type scratch struct {
	path       []int
	classStack []class
	intStack   []int
	nodeStack  []*mtype.Type
	keyStack   []primKey
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// NewComparer returns a Comparer with the given rules.
func NewComparer(rules Rules) *Comparer {
	return &Comparer{rules: rules, flat: make(map[*mtype.Type]*flattening)}
}

// RegisterSemantic declares that values of declarations tagged tagA
// convert to values tagged tagB through the named programmer-supplied
// hook (§6). The pair matches regardless of structure; execution engines
// receive the hook name and must have a function registered under it.
func (c *Comparer) RegisterSemantic(tagA, tagB, hook string) {
	// A verdict stands across a registration: a later probe of a pair
	// reads the entry an earlier one left. The pairs the runs so far
	// refused at their first step take their entries now, from the
	// replays, and every later probe takes one.
	if !c.late && len(c.runs[0])+len(c.runs[1]) > 0 {
		for i := range c.runs {
			for key, st := range c.diagnosis(Mode(i + 1)).pairs {
				if st.why != whyNone && c.pairs[key] == nil {
					*c.state(key) = pairState{failed: true, why: st.why, x: st.x, y: st.y}
				}
			}
		}
		c.late, c.replay = true, [2]*Comparer{}
	}
	if c.semantic == nil {
		c.semantic, c.semanticTags = make(map[[2]string]string), make(map[string]bool)
	}
	c.semantic[[2]string{tagA, tagB}] = hook
	c.semanticTags[tagA] = true
	c.semanticTags[tagB] = true
	clear(c.flat) // a newly registered tag changes what flattening dissolves
}

// reserve sizes the pair table and arena chunks for a first comparison of
// a and b from the entries it will make: a primitive leaf matched by key
// and a pair refused at its first step take none, so the 60-class suite's
// equivalent pairs make one for every six nodes, at most one for every
// four.
func (c *Comparer) reserve(a, b *mtype.Type) {
	c.n = mtype.Size(a) + mtype.Size(b)
	c.pairs = make(map[pairKey]*pairState, c.n/4)
}

// carve cuts n elements off the front of *arena, first replacing it with
// a chunk of max(n, want) elements when it is short.
func carve[T any](arena *[]T, n, want int) []T {
	if len(*arena) < n {
		*arena = make([]T, max(n, chunk[T](want)))
	}
	s := (*arena)[:n:n]
	*arena = (*arena)[n:]
	return s
}

// chunk bounds an arena chunk to the allocator's size classes (32 KiB):
// larger ones, each of its own odd size, fragment the heap.
func chunk[T any](want int) int { return min(want, 32<<10/int(unsafe.Sizeof(*new(T)))) }

// push grows the scratch stack *s by n elements and returns them; its
// caller truncates *s back when done.
func push[T any](s *[]T, n int) []T {
	*s = slices.Grow(*s, n)[:len(*s)+n]
	return (*s)[len(*s)-n:]
}

// state returns the table entry for key, creating it on first sight.
func (c *Comparer) state(key pairKey) *pairState {
	st := c.pairs[key]
	if st == nil {
		if c.pairs == nil { // compared without run: no graphs to size from
			c.pairs = make(map[pairKey]*pairState)
		}
		st = &carve(&c.slab, 1, cmp.Or(c.n/4, 128))[0]
		c.pairs[key] = st
	}
	return st
}

// fail records why the pair does not match; the first reason stands.
func (st *pairState) fail(why uint8, x, y int) {
	if st.why == whyNone {
		st.why, st.x, st.y = why, x, y
	}
}

// Steps returns the number of pair comparisons performed so far; the
// scalability benchmarks report it. Primitive leaves matched by key are
// not compared, so they count no step.
func (c *Comparer) Steps() int { return c.steps }

// Match is a successful comparison: the relation that holds and access to
// the decisions that witness it.
type Match struct {
	A, B *mtype.Type
	Mode Mode
	c    *Comparer
}

// Decision returns the recorded correspondence for a node pair reached
// during conversion. The pair must have been matched (directly or as a
// descendant of the matched roots).
func (m *Match) Decision(a, b *mtype.Type) (*Decision, error) {
	ua, ub := unfold(a), unfold(b)
	// Same nodes and primitives matched by key have no entry.
	if ua == ub {
		return &Decision{Kind: DecSame, A: ua, B: ub}, nil
	}
	if k := m.c.key(ua); k.kind != 0 && k == m.c.key(ub) {
		return &Decision{Kind: DecPrim, A: ua, B: ub}, nil
	}
	if st := m.c.pairs[pairKey{ua, ub, m.Mode}]; st != nil && st.dec != nil {
		return st.dec, nil
	}
	// Subtype conversions recurse through port elements contravariantly,
	// flipping back to the covariant pair; equal-mode decisions also
	// satisfy subtype queries.
	if m.Mode == ModeSubtype {
		if st := m.c.pairs[pairKey{ua, ub, ModeEqual}]; st != nil && st.dec != nil {
			return st.dec, nil
		}
	}
	return nil, fmt.Errorf("compare: no decision recorded for %s ~ %s", ua.Kind(), ub.Kind())
}

// primKey is a primitive's kind and parameters as machine words: two keyed
// primitives are equivalent exactly when their keys are equal.
type primKey struct {
	kind   mtype.Kind
	signed bool
	lo, hi uint64
}

// key returns the key of the primitive t unfolds to, or the zero key (kind
// 0) when t is not one, its integer range does not fit in machine words, or
// its tag is in a semantic registration (such a pair may match by fiat).
func (c *Comparer) key(t *mtype.Type) primKey {
	switch u := unfold(t); {
	case u == nil || len(c.semanticTags) > 0 && u.Tag() != "" && c.semanticTags[u.Tag()]:
	case u.Kind() == mtype.KindInteger:
		if lo, hi, signed, ok := u.IntegerWords(); ok {
			return primKey{mtype.KindInteger, signed, lo, hi}
		}
	case u.Kind() == mtype.KindCharacter:
		return primKey{mtype.KindCharacter, false, uint64(u.Repertoire()), 0}
	case u.Kind() == mtype.KindReal:
		p, e := u.RealParams()
		return primKey{mtype.KindReal, false, uint64(p), uint64(e)}
	}
	return primKey{}
}

// Equivalent decides two-way interconvertibility of a and b.
func (c *Comparer) Equivalent(a, b *mtype.Type) (*Match, bool) {
	return c.run(a, b, ModeEqual)
}

// Subtype decides whether a is a subtype of b (one-way convertible a→b).
func (c *Comparer) Subtype(a, b *mtype.Type) (*Match, bool) {
	return c.run(a, b, ModeSubtype)
}

func (c *Comparer) run(a, b *mtype.Type, mode Mode) (*Match, bool) {
	if c.pairs == nil {
		c.reserve(a, b)
	}
	c.runs[mode-1] = append(c.runs[mode-1], pairKey{a, b, mode})
	s := scratchPool.Get().(*scratch)
	c.scratch = *s
	ok, _ := c.compare(a, b, mode)
	clear(c.nodeStack[:cap(c.nodeStack)]) // the pool keeps no graph alive
	*s, c.scratch = c.scratch, scratch{}
	scratchPool.Put(s)
	if !ok {
		return nil, false
	}
	return &Match{A: a, B: b, Mode: mode, c: c}, true
}

// FailureReason returns a human-readable explanation of why the pair does
// not match, for the diagnostics the paper calls for in §6. It returns ""
// if no failure involving the pair was recorded.
func (c *Comparer) FailureReason(a, b *mtype.Type, mode Mode) string {
	key := pairKey{unfold(a), unfold(b), mode}
	if st := c.diagnosed(key); st != nil {
		return key.describeFailure(st)
	}
	return ""
}

// diagnosed returns the pair's state if a failure reason is recorded. A
// pair refused at its first step took no entry, so its reason is read
// from the replay of this comparer's runs, which kept one.
func (c *Comparer) diagnosed(key pairKey) *pairState {
	if st := c.pairs[key]; st != nil && st.why != whyNone {
		return st
	}
	if c.late {
		return nil
	}
	if st := c.diagnosis(key.mode).pairs[key]; st != nil && st.why != whyNone {
		return st
	}
	return nil
}

// diagnosis brings the replay of mode up to date with c's runs of that
// mode and returns it. A comparison compares pairs of its own mode only, so
// a mode's entries follow from its runs alone: a failed equivalence
// explained after both subtype probes failed replays the equivalence run
// alone. The replay makes those runs in the same order, so it probes the
// same pairs; its table is c's entries of the mode plus one for each pair
// c refused at its first step. Only runs made before any registration
// that followed runs are replayed, so all of c's registrations were in
// force for them: the replay shares them, and the flattenings they made.
func (c *Comparer) diagnosis(mode Mode) *Comparer {
	r := c.replay[mode-1]
	if r == nil {
		r = &Comparer{rules: c.rules, diag: true}
		c.replay[mode-1] = r
	}
	r.semantic, r.semanticTags, r.flat = c.semantic, c.semanticTags, c.flat
	for _, key := range c.runs[mode-1][len(r.runs[mode-1]):] {
		r.run(key.a, key.b, mode)
	}
	return r
}

// describeFailure renders the reason recorded in st for the pair.
func (k pairKey) describeFailure(st *pairState) string {
	args := []any{st.x, st.y}
	switch st.why {
	case whyKinds:
		args = []any{k.a.Kind(), k.b.Kind()}
	case whyInteger:
		alo, ahi := k.a.IntegerRange()
		blo, bhi := k.b.IntegerRange()
		args = []any{alo, ahi, blo, bhi}
	case whyCharacter:
		args = []any{k.a.Repertoire(), k.b.Repertoire()}
	case whyReal:
		pa, ea := k.a.RealParams()
		pb, eb := k.b.RealParams()
		args = []any{pa, ea, pb, eb}
	}
	format := whyText[st.why] // takes as many operands as it has verbs
	return fmt.Sprintf(format, args[:strings.Count(format, "%")]...)
}

// unfold resolves chains of μ nodes to the underlying structural node.
func unfold(t *mtype.Type) *mtype.Type {
	for t != nil && t.Kind() == mtype.KindRecursive {
		t = t.Body()
	}
	return t
}

// compare is the coinductive core. It returns whether the relation holds
// and whether the proof was self-contained (used no coinductive
// assumption), which controls caching.
func (c *Comparer) compare(a, b *mtype.Type, mode Mode) (ok, selfContained bool) {
	c.steps++
	ua, ub := unfold(a), unfold(b)
	if ua == nil || ub == nil {
		return false, true
	}
	if ua == ub {
		return true, true // a same-node pair needs no entry: its decision is implied
	}
	// Programmer-registered semantic conversions match by fiat (§6). The
	// hook is directional: a two-way stub needs both directions
	// registered.
	hook, semantic := "", false
	if len(c.semantic) > 0 && ua.Tag() != "" && ub.Tag() != "" {
		hook, semantic = c.semantic[[2]string{ua.Tag(), ub.Tag()}]
	}
	// A pair refused at its first step takes no entry: deciding it again
	// costs less than keeping its answer, unless a registration since may
	// change the answer (late). Injection may still rescue it.
	inject := mode == ModeSubtype && ub.Kind() == mtype.KindChoice && ua.Kind() != mtype.KindChoice
	why, x, y := whyNone, 0, 0
	if !semantic {
		why, x, y = c.refuse(ua, ub)
	}
	if why != whyNone && !inject && !c.late {
		if c.diag {
			c.state(pairKey{ua, ub, mode}).fail(why, x, y)
		}
		return false, true
	}
	st := c.state(pairKey{ua, ub, mode})
	if c.rules.Cache && (st.proven || st.failed) {
		return st.proven, true
	}
	if semantic {
		st.dec = &Decision{Kind: DecSemantic, A: ua, B: ub, Hook: hook}
		st.proven = true
		return true, true
	}
	if st.onPath {
		return true, false
	}
	st.onPath = true
	ok, self := false, true
	if why != whyNone {
		st.fail(why, x, y)
	} else {
		ok, self = c.structural(ua, ub, mode, st)
	}
	if !ok && inject {
		// Injection: a non-choice is a subtype of a choice when it is a
		// subtype of one of its alternatives (a definite value can be
		// used where alternatives — e.g. null — are allowed).
		for j, alt := range ub.Alts() {
			okJ, selfJ := c.compare(ua, alt.Type, ModeSubtype)
			if okJ {
				st.dec = &Decision{Kind: DecInject, A: ua, B: ub, AltMap: []int{j}}
				ok, self = true, selfJ
				break
			}
		}
	}
	st.onPath = false
	if !ok {
		st.failed = true
		return false, true
	}
	// A proof that used only this pair's own assumption is discharged by
	// completing: the pair set forms a bisimulation-up-to. Proofs that
	// used *other* path assumptions remain conditional; they are not
	// cached but their decisions stand (they are re-derived consistently
	// because the graph is deterministic).
	st.proven = st.proven || self
	return true, self
}

// refuse returns why the unfolded pair fails at its first step, before
// any child is compared, or whyNone: its kinds match no rule, or it is
// record-like and its flattenings exceed the budget or differ in live
// leaf count.
func (c *Comparer) refuse(a, b *mtype.Type) (why uint8, x, y int) {
	switch ak, bk := a.Kind(), b.Kind(); {
	case recordLike(ak, bk):
		fa, fb := c.flatten(a), c.flatten(b)
		if fa.err != nil || fb.err != nil {
			return whyTooWide, 0, 0
		}
		if fa.live != fb.live {
			return whyLeafCount, fa.live, fb.live
		}
	case ak != bk:
		return whyKinds, 0, 0
	}
	return whyNone, 0, 0
}

// recordLike reports whether a pair of kinds matches as records (also
// Unit against Unit, and a record against a lone leaf).
func recordLike(ak, bk mtype.Kind) bool {
	return ak == mtype.KindRecord || bk == mtype.KindRecord || ak == mtype.KindUnit && bk == mtype.KindUnit
}

// structural dispatches on the unfolded node kinds of a pair refuse let
// through.
func (c *Comparer) structural(a, b *mtype.Type, mode Mode, st *pairState) (ok, selfContained bool) {
	switch ak := a.Kind(); {
	case recordLike(ak, b.Kind()):
		return c.recordMatch(a, b, mode, st)
	case ak <= mtype.KindReal: // Integer, Character and Real are the first three kinds
		return st.primitive(a, b, mode), true
	case ak == mtype.KindChoice:
		return c.choiceMatch(a, b, mode, st)
	default: // ports
		var okE, selfE bool
		if mode == ModeSubtype {
			// port(τ) <: port(σ) iff σ <: τ: a port that accepts τ can be
			// used where a port accepting the more specific σ is expected.
			okE, selfE = c.compare(b.Elem(), a.Elem(), ModeSubtype)
		} else {
			okE, selfE = c.compare(a.Elem(), b.Elem(), ModeEqual)
		}
		if !okE {
			st.fail(whyPort, 0, 0)
			return false, selfE
		}
		st.dec = c.decision(Decision{Kind: DecPort, A: a, B: b})
		return true, selfE
	}
}

// primitive compares two primitive nodes of one kind. It neither allocates
// nor formats: a failed probe stores a reason code, and the operands stay
// on the nodes.
func (st *pairState) primitive(a, b *mtype.Type, mode Mode) bool {
	var eq, sub bool
	why := whyInteger
	switch a.Kind() {
	case mtype.KindInteger:
		lo, hi := a.CompareIntegerRange(b)
		eq, sub = lo == 0 && hi == 0, lo >= 0 && hi <= 0
	case mtype.KindCharacter:
		ra, rb := a.Repertoire(), b.Repertoire()
		eq, sub, why = ra == rb, rb.Includes(ra), whyCharacter
	default:
		pa, ea := a.RealParams()
		pb, eb := b.RealParams()
		eq, sub, why = pa == pb && ea == eb, pa <= pb && ea <= eb, whyReal
	}
	if mode == ModeSubtype {
		eq = sub
	}
	if !eq {
		st.fail(why, 0, 0)
	} else if st.dec == nil {
		st.dec = &Decision{Kind: DecPrim, A: a, B: b}
	}
	return eq
}

// flattenBudget bounds the number of leaves associative flattening may
// produce for one record. By-value object graphs with heavy sharing
// denote trees whose fully flattened width is exponential in their DAG
// depth; rather than hang, the comparer fails such pairs with a clear
// reason. (The paper reports the scalability of the algorithms as an
// ongoing investigation, §5 — this is the corresponding engineering
// bound.)
const flattenBudget = 1 << 12

// errFlattenBudget signals that flattening exceeded the budget.
var errFlattenBudget = errors.New("flattening budget exceeded")

// flatten returns the record leaves of t. With associativity, records
// nested directly inside records are expanded (never through a μ node);
// with unit elimination, leaves that unfold to Unit are kept but marked.
// A non-record node is a single leaf of itself. A node is flattened once
// per comparer: the walk keeps one path stack and copies a path out only
// at a leaf, so its cost is the size of its result.
func (c *Comparer) flatten(t *mtype.Type) *flattening {
	if f := c.flat[t]; f != nil {
		return f
	}
	f := &carve(&c.flats, 1, c.n/8)[0]
	c.flat[t] = f
	// The walk appends the leaves to the leaf arena's free tail, cut past
	// them at the end; leaves outgrowing it move on to a new chunk.
	f.leaves = c.leaves[:0]
	path := c.path[:0]
	defer func() { c.path = path }()
	var walk func(n *mtype.Type) error
	walk = func(n *mtype.Type) error {
		if len(f.leaves) >= flattenBudget {
			return errFlattenBudget
		}
		un, depth := unfold(n), len(path)
		semanticLeaf := un != nil && len(c.semanticTags) > 0 && un.Tag() != "" && c.semanticTags[un.Tag()] && depth > 0
		if un != nil && un.Kind() == mtype.KindRecord && (depth == 0 || c.rules.Associativity) && !semanticLeaf {
			for i, fld := range un.Fields() {
				path = append(path, i)
				err := walk(fld.Type)
				path = path[:depth]
				if err != nil {
					return err
				}
			}
			return nil
		}
		leaf := FlatLeaf{Node: n, Unit: c.rules.UnitElimination && un != nil && un.Kind() == mtype.KindUnit}
		if depth > 0 {
			leaf.Path = carve(&c.ints, depth, 2*c.n)
			copy(leaf.Path, path)
		}
		if !leaf.Unit {
			f.live++
		}
		if len(f.leaves) == cap(f.leaves) {
			c.leaves = make([]FlatLeaf, max(2*len(f.leaves), chunk[FlatLeaf](c.n), 16))
			f.leaves = append(c.leaves[:0], f.leaves...)
		}
		f.leaves = append(f.leaves, leaf)
		return nil
	}
	if err := walk(t); err != nil {
		*f = flattening{err: err}
		return f
	}
	n := len(f.leaves)
	f.leaves, c.leaves = f.leaves[:n:n], c.leaves[n:]
	return f
}

// recordMatch matches two record-like nodes, whose flattenings refuse
// found within budget and of one live leaf count, by finding a
// permutation of non-unit leaves.
func (c *Comparer) recordMatch(a, b *mtype.Type, mode Mode, st *pairState) (bool, bool) {
	fa, fb := c.flatten(a), c.flatten(b)
	ni, nn := len(c.intStack), len(c.nodeStack)
	defer func() { c.intStack, c.nodeStack, c.keyStack = c.intStack[:ni], c.nodeStack[:nn], c.keyStack[:nn] }()
	liveA, nodesA, keysA := c.live(fa)
	liveB, nodesB, keysB := c.live(fb)

	perm := carve(&c.ints, len(fa.leaves), 2*c.n)
	for i := range perm {
		perm[i] = -1
	}
	self := true

	if !c.rules.Commutativity {
		// Order-preserving matching.
		for k, ia := range liveA {
			ok, s := c.compare(nodesA[k], nodesB[k], mode)
			self = self && s
			if !ok {
				st.fail(whyLeaf, ia, liveB[k])
				return false, self
			}
			perm[ia] = liveB[k]
		}
	} else {
		miss, s := c.multiset(nodesA, nodesB, keysA, keysB, mode, perm[:len(liveA)])
		self = self && s
		if miss >= 0 {
			st.fail(whyNoPermutation, liveA[miss], int(kindOf(nodesA[miss])))
			return false, self
		}
		// perm[k] is live leaf k's partner among b's live leaves. Spread
		// to leaf indices back to front: liveA[k] >= k.
		for k := len(liveA) - 1; k >= 0; k-- {
			j := perm[k]
			perm[k], perm[liveA[k]] = -1, liveB[j]
		}
	}

	st.dec = c.decision(Decision{Kind: DecRecord, A: a, B: b, FlatA: fa.leaves, FlatB: fb.leaves, Perm: perm})
	return true, self
}

// live pushes the indices, nodes and keys of f's live leaves on the
// scratch stacks.
func (c *Comparer) live(f *flattening) ([]int, []*mtype.Type, []primKey) {
	idx, nodes, keys := push(&c.intStack, f.live), push(&c.nodeStack, f.live), push(&c.keyStack, f.live)
	k := 0
	for i, l := range f.leaves {
		if !l.Unit {
			idx[k], nodes[k], keys[k] = i, l.Node, c.key(l.Node)
			k++
		}
	}
	return idx, nodes, keys
}

// choiceMatch matches two choices alternative-by-alternative: a bijection
// for equality, an injection into b for subtyping (a choice with fewer
// alternatives can be used where one with more is expected).
func (c *Comparer) choiceMatch(a, b *mtype.Type, mode Mode, st *pairState) (bool, bool) {
	altsA, altsB := a.Alts(), b.Alts()
	if mode == ModeEqual && len(altsA) != len(altsB) {
		st.fail(whyAltCount, len(altsA), len(altsB))
		return false, true
	}
	if mode == ModeSubtype && len(altsA) > len(altsB) {
		st.fail(whyMoreAlts, len(altsA), len(altsB))
		return false, true
	}

	altMap := carve(&c.ints, len(altsA), 2*c.n)
	self := true

	if !c.rules.Commutativity {
		for i := range altsA {
			ok, s := c.compare(altsA[i].Type, altsB[i].Type, mode)
			self = self && s
			if !ok {
				st.fail(whyAlt, i, 0)
				return false, self
			}
			altMap[i] = i
		}
	} else {
		top := len(c.nodeStack)
		na, ka := c.alts(altsA)
		nb, kb := c.alts(altsB)
		miss, s := c.multiset(na, nb, ka, kb, mode, altMap)
		c.nodeStack, c.keyStack = c.nodeStack[:top], c.keyStack[:top]
		self = self && s
		if miss >= 0 {
			st.fail(whyNoAltMapping, miss, int(kindOf(altsA[miss].Type)))
			return false, self
		}
	}

	st.dec = c.decision(Decision{Kind: DecChoice, A: a, B: b, AltMap: altMap})
	return true, self
}

// decision carves d's copy from the decision slab.
func (c *Comparer) decision(d Decision) *Decision {
	p := &carve(&c.decs, 1, c.n/8)[0]
	*p = d
	return p
}

// alts pushes the alternatives' nodes and keys on the scratch stacks.
func (c *Comparer) alts(alts []mtype.Alt) ([]*mtype.Type, []primKey) {
	nodes, keys := push(&c.nodeStack, len(alts)), push(&c.keyStack, len(alts))
	for i, alt := range alts {
		nodes[i], keys[i] = alt.Type, c.key(alt.Type)
	}
	return nodes, keys
}

// partitionHook, when a test sets it, runs in place of partition.
var partitionHook func(c *Comparer, a, b []*mtype.Type, ka, kb []primKey, out []int) (int, bool)

// multiset matches every item of a to a distinct item of b under the
// relation of mode, writing the assignment (a index → b index) into out,
// or returns the index of the first item of a left without a partner. ka
// and kb are the items' keys. It is polynomial: equivalence matching
// partitions both sides into classes (Mtype equivalence is transitive) and
// pairs class members; subtype matching runs Kuhn's augmenting-path
// bipartite matching. The naive factorial backtracking this replaces
// blows up on the wide records of real interface suites (many leaves of
// the same primitive type).
func (c *Comparer) multiset(a, b []*mtype.Type, ka, kb []primKey, mode Mode, out []int) (miss int, selfContained bool) {
	if mode == ModeEqual && partitionHook != nil {
		return partitionHook(c, a, b, ka, kb, out)
	} else if mode == ModeEqual {
		return c.partition(a, b, ka, kb, out)
	}
	self := true

	// Subtype: Kuhn's augmenting-path maximum bipartite matching over the
	// a[i] <: b[j] edges, seeded with an order-preserving greedy pass so
	// that identically-ordered sides pair position-by-position instead of
	// in some arbitrary crossing.
	matchB, assignedA := make([]int, len(b)), make([]bool, len(a))
	for k := range matchB {
		matchB[k] = -1
		if k < len(a) {
			okC, s := c.compare(a[k], b[k], ModeSubtype)
			if self = self && s; okC {
				matchB[k], assignedA[k] = k, true
			}
		}
	}
	var try func(i int, visited []bool) bool
	try = func(i int, visited []bool) bool {
		for j := range b {
			if visited[j] {
				continue
			}
			okC, s := c.compare(a[i], b[j], ModeSubtype)
			if self = self && s; !okC {
				continue
			}
			visited[j] = true
			if matchB[j] < 0 || try(matchB[j], visited) {
				matchB[j] = i
				return true
			}
		}
		return false
	}
	for i := range a {
		if !assignedA[i] && !try(i, make([]bool, len(b))) {
			return i, self
		}
	}
	for j, i := range matchB {
		if i >= 0 {
			out[i] = j
		}
	}
	return -1, self
}

// partition is multiset's equivalence case: b splits into classes, in
// order of first member, and each item of a takes the next free member of
// the first class it matches. A keyed leaf finds its class by key, and is
// probed only against wide representatives: records, which may flatten to
// one leaf, and primitives without a key.
func (c *Comparer) partition(a, b []*mtype.Type, ka, kb []primKey, out []int) (miss int, selfContained bool) {
	nc, ni := len(c.classStack), len(c.intStack)
	defer func() { c.classStack, c.intStack = c.classStack[:nc], c.intStack[:ni] }()
	// Classes go on top of the class stack as they are found, since a
	// nested match pops back to them. A comparison may move the stack:
	// place reads a class's fixed fields from wherever it finds them, and
	// a class is changed only where the stack is now.
	self, link := true, push(&c.intStack, len(b)) // link: the next member of a b item's class
	// place returns the first class n is equivalent to, or -1, comparing
	// (representative, n), or (n, representative) for an item of a.
	place := func(n *mtype.Type, k primKey, aSide bool) int {
		classes := c.classStack[nc:]
		for ci := range classes {
			cl := &classes[ci]
			if k.kind != 0 && cl.key == k {
				return ci
			} else if k.kind != 0 && !cl.wide {
				continue
			}
			x, y := b[cl.rep], n
			if aSide {
				x, y = n, b[cl.rep]
			}
			ok, s := c.compare(x, y, ModeEqual)
			if self = self && s; ok {
				return ci
			}
		}
		return -1
	}
	for j, bn := range b {
		ci := place(bn, kb[j], false)
		if ci < 0 {
			kind := kindOf(bn) // Integer, Character and Real are the first three kinds
			wide := kb[j].kind == 0 && (kind == mtype.KindRecord || kind <= mtype.KindReal)
			ci, c.classStack = len(c.classStack)-nc, append(c.classStack, class{kb[j], int32(j), int32(j), int32(j), 0, wide})
		}
		cl := &c.classStack[nc+ci]
		link[cl.last], cl.last, cl.left = j, int32(j), cl.left+1
	}
	for i, an := range a {
		ci := place(an, ka[i], true)
		if ci < 0 || c.classStack[nc+ci].left == 0 {
			return i, self
		}
		cl := &c.classStack[nc+ci]
		m := int(cl.next)
		cl.next, cl.left, out[i] = int32(link[m]), cl.left-1, m
		// Any but an equal-key member is compared again, which records the
		// decision for this exact pair; by transitivity it succeeds.
		if ka[i].kind == 0 || kb[m] != ka[i] {
			okM, s := c.compare(an, b[m], ModeEqual)
			if self = self && s; !okM {
				return i, self
			}
		}
	}
	return -1, self
}

// Explain renders a failure diagnosis for a root pair: the recorded
// reasons reachable from the pair, indented by depth. It supports the
// mismatch-isolation workflow of §6.
func (c *Comparer) Explain(a, b *mtype.Type, mode Mode) string {
	var sb strings.Builder
	seen := make(map[pairKey]bool)
	var walk func(x, y *mtype.Type, depth int)
	walk = func(x, y *mtype.Type, depth int) {
		ux, uy := unfold(x), unfold(y)
		key := pairKey{ux, uy, mode}
		if seen[key] || depth > 16 {
			return
		}
		seen[key] = true
		if st := c.diagnosed(key); st != nil {
			fmt.Fprintf(&sb, "%s%s ~ %s: %s\n", strings.Repeat("  ", depth), describe(ux), describe(uy), key.describeFailure(st))
			if st.why == whyNoPermutation || st.why == whyNoAltMapping { // x and y: which leaf, of what kind
				fmt.Fprintf(&sb, "%s  A leaf %d (kind %s) has no partner\n", strings.Repeat("  ", depth), st.x, mtype.Kind(st.y))
			}
		}
		if ux == nil || uy == nil {
			return // an unbound μ: nothing below it was compared
		}
		for _, cx := range ux.Children() {
			for _, cy := range uy.Children() {
				if c.diagnosed(pairKey{unfold(cx), unfold(cy), mode}) != nil {
					walk(cx, cy, depth+1)
				}
			}
		}
	}
	walk(a, b, 0)
	if sb.Len() == 0 {
		return "no mismatch recorded"
	}
	return sb.String()
}

// kindOf is the kind t unfolds to, recursive for an unbound μ.
func kindOf(t *mtype.Type) mtype.Kind {
	if u := unfold(t); u != nil {
		t = u
	}
	return t.Kind()
}

func describe(t *mtype.Type) string {
	if t == nil {
		return "<nil>"
	}
	if tag := t.Tag(); tag != "" {
		return tag
	}
	return t.Kind().String()
}
