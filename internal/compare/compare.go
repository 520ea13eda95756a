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
	"errors"
	"fmt"
	"strings"

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
	// Cache memoizes verdicts across Compare calls.
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
// and the indices and nodes of the live ones (not eliminated as units).
type flattening struct {
	leaves []FlatLeaf
	live   []int
	nodes  []*mtype.Type
	err    error
}

// Comparer decides Mtype relations and accumulates correspondence
// decisions. It is not safe for concurrent use.
type Comparer struct {
	rules Rules
	// pairs is the one table of pair states; entries are carved from slab.
	// Both are made at the first comparison, sized from its graphs.
	pairs map[pairKey]*pairState
	slab  []pairState
	// flat memoizes flatten; leaf paths are cut from the arena paths.
	flat  map[*mtype.Type]*flattening
	paths []int
	// semantic maps tag pairs to hook names: pairs of nodes carrying
	// these tags match by fiat, converted by the named programmer hook.
	semantic map[[2]string]string
	// semanticTags holds every tag that appears in a registration:
	// flattening must not dissolve such records, or the pair would never
	// be compared as a unit.
	semanticTags map[string]bool

	steps int
}

// NewComparer returns a Comparer with the given rules.
func NewComparer(rules Rules) *Comparer {
	return &Comparer{
		rules:        rules,
		flat:         make(map[*mtype.Type]*flattening),
		semantic:     make(map[[2]string]string),
		semanticTags: make(map[string]bool),
	}
}

// RegisterSemantic declares that values of declarations tagged tagA
// convert to values tagged tagB through the named programmer-supplied
// hook (§6). The pair matches regardless of structure; execution engines
// receive the hook name and must have a function registered under it.
func (c *Comparer) RegisterSemantic(tagA, tagB, hook string) {
	c.semantic[[2]string{tagA, tagB}] = hook
	c.semanticTags[tagA] = true
	c.semanticTags[tagB] = true
	clear(c.flat) // a newly registered tag changes what flattening dissolves
}

// reserve sizes the pair table, its first slab and the path arena for a
// first comparison of a and b, which used to grow all three from empty —
// the table doubling five to eight times — on every cache fill of the
// broker. A comparison looks at about four pairs per node of its two
// graphs (2.7 on the synthesized suites' data classes, 5.2 on their
// service classes).
func (c *Comparer) reserve(a, b *mtype.Type) {
	seen := make(map[*mtype.Type]struct{}, 64)
	var count func(t *mtype.Type)
	count = func(t *mtype.Type) {
		if _, ok := seen[t]; ok || t == nil {
			return
		}
		seen[t] = struct{}{}
		switch t.Kind() {
		case mtype.KindRecord:
			for _, f := range t.Fields() {
				count(f.Type)
			}
		case mtype.KindChoice:
			for _, alt := range t.Alts() {
				count(alt.Type)
			}
		case mtype.KindPort:
			count(t.Elem())
		case mtype.KindRecursive:
			count(t.Body())
		}
	}
	count(a)
	count(b)
	n := 4 * len(seen)
	c.pairs = make(map[pairKey]*pairState, n)
	// Slabs and arena chunks stay within the allocator's size classes
	// (32 KiB): larger ones, each of its own odd size, fragment the heap.
	c.slab = make([]pairState, min(n, 1024))
	c.paths = make([]int, 0, min(2*n, 4096))
}

// state returns the table entry for key, creating it on first sight.
func (c *Comparer) state(key pairKey) *pairState {
	st := c.pairs[key]
	if st == nil {
		if c.pairs == nil { // compared without run: no graphs to size from
			c.pairs = make(map[pairKey]*pairState)
		}
		if len(c.slab) == 0 {
			c.slab = make([]pairState, 128)
		}
		st, c.slab = &c.slab[0], c.slab[1:]
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
// scalability benchmarks report it.
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
	if ok, _ := c.compare(a, b, mode); !ok {
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

// diagnosed returns the pair's state if a failure reason is recorded.
func (c *Comparer) diagnosed(key pairKey) *pairState {
	if st := c.pairs[key]; st != nil && st.why != whyNone {
		return st
	}
	return nil
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
	st := c.state(pairKey{ua, ub, mode})
	if ua == ub {
		if st.dec == nil { // a same-node pair never earns another decision
			st.dec = &Decision{Kind: DecSame, A: ua, B: ub}
		}
		return true, true
	}
	if c.rules.Cache && (st.proven || st.failed) {
		return st.proven, true
	}
	// Programmer-registered semantic conversions match by fiat (§6). The
	// hook is directional: a two-way stub needs both directions
	// registered.
	if ua.Tag() != "" && ub.Tag() != "" {
		if hook, ok := c.semantic[[2]string{ua.Tag(), ub.Tag()}]; ok {
			st.dec = &Decision{Kind: DecSemantic, A: ua, B: ub, Hook: hook}
			st.proven = true
			return true, true
		}
	}
	if st.onPath {
		return true, false
	}
	st.onPath = true
	ok, self := c.structural(ua, ub, mode, st)
	if !ok && mode == ModeSubtype && ub.Kind() == mtype.KindChoice && ua.Kind() != mtype.KindChoice {
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

// structural dispatches on the unfolded node kinds.
func (c *Comparer) structural(a, b *mtype.Type, mode Mode, st *pairState) (ok, selfContained bool) {
	ak, bk := a.Kind(), b.Kind()

	switch ak {
	case mtype.KindInteger, mtype.KindCharacter, mtype.KindReal:
		if ak == bk {
			return st.primitive(a, b, mode), true
		}
	}

	// Record-like matching (also covers Unit-vs-empty-record).
	if ak == mtype.KindRecord || bk == mtype.KindRecord ||
		(ak == mtype.KindUnit && bk == mtype.KindUnit) {
		return c.recordMatch(a, b, mode, st)
	}

	switch {
	case ak == mtype.KindChoice && bk == mtype.KindChoice:
		return c.choiceMatch(a, b, mode, st)
	case ak == mtype.KindPort && bk == mtype.KindPort:
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
		st.dec = &Decision{Kind: DecPort, A: a, B: b}
		return true, selfE
	default:
		st.fail(whyKinds, 0, 0)
		return false, true
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
	f := &flattening{}
	c.flat[t] = f
	// The walk runs twice: once to count the leaves, so that the second
	// fills slices of their final size.
	leaves, live, fill := 0, 0, false
	var path []int
	var walk func(n *mtype.Type) error
	walk = func(n *mtype.Type) error {
		if leaves >= flattenBudget {
			return errFlattenBudget
		}
		un, depth := unfold(n), len(path)
		semanticLeaf := un != nil && un.Tag() != "" && c.semanticTags[un.Tag()] && depth > 0
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
		if !fill {
			leaves++
			if !leaf.Unit {
				live++
			}
			return nil
		}
		if depth > 0 {
			if cap(c.paths)-len(c.paths) < depth {
				c.paths = make([]int, 0, max(256, depth))
			}
			c.paths = append(c.paths, path...)
			leaf.Path = c.paths[len(c.paths)-depth : len(c.paths) : len(c.paths)]
		}
		if !leaf.Unit {
			f.live, f.nodes = append(f.live, len(f.leaves)), append(f.nodes, n)
		}
		f.leaves = append(f.leaves, leaf)
		return nil
	}
	if err := walk(t); err != nil {
		*f = flattening{err: err}
		return f
	}
	f.leaves, f.live, f.nodes = make([]FlatLeaf, 0, leaves), make([]int, 0, live), make([]*mtype.Type, 0, live)
	leaves, fill = 0, true
	_ = walk(t) // the count stayed inside the budget
	return f
}

// recordMatch matches two record-like nodes by flattening both sides and
// finding a permutation of non-unit leaves.
func (c *Comparer) recordMatch(a, b *mtype.Type, mode Mode, st *pairState) (bool, bool) {
	fa, fb := c.flatten(a), c.flatten(b)
	if fa.err != nil || fb.err != nil {
		st.fail(whyTooWide, 0, 0)
		return false, true
	}
	if len(fa.live) != len(fb.live) {
		st.fail(whyLeafCount, len(fa.live), len(fb.live))
		return false, true
	}

	perm := make([]int, len(fa.leaves))
	for i := range perm {
		perm[i] = -1
	}
	self := true

	if !c.rules.Commutativity {
		// Order-preserving matching.
		for k, ia := range fa.live {
			ok, s := c.compare(fa.nodes[k], fb.nodes[k], mode)
			self = self && s
			if !ok {
				st.fail(whyLeaf, ia, fb.live[k])
				return false, self
			}
			perm[ia] = fb.live[k]
		}
	} else {
		assignment, ok, s := c.matchMultiset(fa.nodes, fb.nodes, mode)
		self = self && s
		if !ok {
			st.fail(whyNoPermutation, 0, 0)
			return false, self
		}
		for k, ia := range fa.live {
			perm[ia] = fb.live[assignment[k]]
		}
	}

	st.dec = &Decision{Kind: DecRecord, A: a, B: b, FlatA: fa.leaves, FlatB: fb.leaves, Perm: perm}
	return true, self
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

	altMap := make([]int, len(altsA))
	for i := range altMap {
		altMap[i] = -1
	}
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
		assignment, ok, s := c.matchMultiset(a.Children(), b.Children(), mode)
		self = self && s
		if !ok {
			st.fail(whyNoAltMapping, 0, 0)
			return false, self
		}
		copy(altMap, assignment)
	}

	st.dec = &Decision{Kind: DecChoice, A: a, B: b, AltMap: altMap}
	return true, self
}

// matchMultiset matches every item of a to a distinct item of b under the
// relation of mode, returning the assignment (a index → b index). It is
// polynomial: equivalence matching partitions both sides into classes
// (Mtype equivalence is transitive) and pairs class members; subtype
// matching runs Kuhn's augmenting-path bipartite matching. The naive
// factorial backtracking this replaces blows up on the wide records of
// real interface suites (many leaves of the same primitive type).
func (c *Comparer) matchMultiset(a, b []*mtype.Type, mode Mode) (assignment []int, ok, selfContained bool) {
	self := true
	if mode == ModeEqual {
		// Partition b into equivalence classes by comparing against class
		// representatives.
		var classRep []int
		var classMembers [][]int
		for j, bn := range b {
			placed := false
			for ci, rep := range classRep {
				okC, s := c.compare(b[rep], bn, ModeEqual)
				self = self && s
				if okC {
					classMembers[ci] = append(classMembers[ci], j)
					placed = true
					break
				}
			}
			if !placed {
				classRep = append(classRep, j)
				classMembers = append(classMembers, []int{j})
			}
		}
		next := make([]int, len(classRep))
		out := make([]int, len(a))
		for i, an := range a {
			found := -1
			for ci, rep := range classRep {
				okC, s := c.compare(an, b[rep], ModeEqual)
				self = self && s
				if okC {
					found = ci
					break
				}
			}
			if found < 0 || next[found] >= len(classMembers[found]) {
				return nil, false, self
			}
			member := classMembers[found][next[found]]
			next[found]++
			// Compare against the assigned member itself so the decision
			// for this exact pair is recorded for the planner; by
			// transitivity it must succeed.
			okM, s := c.compare(an, b[member], ModeEqual)
			self = self && s
			if !okM {
				return nil, false, self
			}
			out[i] = member
		}
		return out, true, self
	}

	// Subtype: Kuhn's augmenting-path maximum bipartite matching over the
	// a[i] <: b[j] edges, seeded with an order-preserving greedy pass so
	// that identically-ordered sides pair position-by-position instead of
	// in some arbitrary crossing.
	matchB := make([]int, len(b))
	for j := range matchB {
		matchB[j] = -1
	}
	assignedA := make([]bool, len(a))
	for k := range a {
		if k >= len(b) {
			break
		}
		okC, s := c.compare(a[k], b[k], ModeSubtype)
		self = self && s
		if okC {
			matchB[k] = k
			assignedA[k] = true
		}
	}
	var try func(i int, visited []bool) bool
	try = func(i int, visited []bool) bool {
		for j := range b {
			if visited[j] {
				continue
			}
			okC, s := c.compare(a[i], b[j], ModeSubtype)
			self = self && s
			if !okC {
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
		if assignedA[i] {
			continue
		}
		visited := make([]bool, len(b))
		if !try(i, visited) {
			return nil, false, self
		}
	}
	out := make([]int, len(a))
	for j, i := range matchB {
		if i >= 0 {
			out[i] = j
		}
	}
	return out, true, self
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

func describe(t *mtype.Type) string {
	if t == nil {
		return "<nil>"
	}
	if tag := t.Tag(); tag != "" {
		return tag
	}
	return t.Kind().String()
}
