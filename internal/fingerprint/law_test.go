package fingerprint

import (
	"math/rand"
	"testing"

	"repro/internal/compare"
	"repro/internal/mtype"
	"repro/internal/synth"
)

// bisimilar is the law's independent side: a naive greatest-fixpoint check
// that two graphs denote the same regular tree, children in declaration
// order. A pair met again is assumed equal; with ordered children the walk
// is deterministic, so it fails exactly when some reachable pair differs
// in shape. It shares nothing with Of.
func bisimilar(a, b *mtype.Type) bool {
	type pair struct{ a, b *mtype.Type }
	seen := map[pair]bool{}
	var walk func(a, b *mtype.Type) bool
	walk = func(a, b *mtype.Type) bool {
		a, b = unroll(a), unroll(b)
		if a == nil || b == nil {
			return a == b
		}
		if seen[pair{a, b}] {
			return true
		}
		seen[pair{a, b}] = true
		if a.Kind() != b.Kind() {
			return false
		}
		switch a.Kind() {
		case mtype.KindInteger:
			if lo, hi := a.CompareIntegerRange(b); lo != 0 || hi != 0 {
				return false
			}
		case mtype.KindCharacter:
			if a.Repertoire() != b.Repertoire() {
				return false
			}
		case mtype.KindReal:
			pa, ea := a.RealParams()
			pb, eb := b.RealParams()
			if pa != pb || ea != eb {
				return false
			}
		}
		ka, kb := a.Children(), b.Children()
		if len(ka) != len(kb) {
			return false
		}
		for i := range ka {
			if !walk(ka[i], kb[i]) {
				return false
			}
		}
		return true
	}
	return walk(a, b)
}

// unrolling returns another presentation of t's regular tree: a fresh copy
// of its top, μ binders dropped, to a random depth along each branch, whose
// leaves are t's own nodes.
func unrolling(t *mtype.Type, r *rand.Rand, depth int) *mtype.Type {
	if depth == 0 || r.Intn(4) == 0 {
		return t
	}
	switch t.Kind() {
	case mtype.KindRecursive:
		if t.Body() == nil {
			return t
		}
		return unrolling(t.Body(), r, depth)
	case mtype.KindRecord:
		fields := append([]mtype.Field(nil), t.Fields()...)
		for i := range fields {
			fields[i].Type = unrolling(fields[i].Type, r, depth-1)
		}
		return mtype.NewRecord(fields...)
	case mtype.KindChoice:
		alts := append([]mtype.Alt(nil), t.Alts()...)
		for i := range alts {
			alts[i].Type = unrolling(alts[i].Type, r, depth-1)
		}
		return mtype.NewChoice(alts...)
	case mtype.KindPort:
		return mtype.NewPort(unrolling(t.Elem(), r, depth-1))
	}
	return t
}

// permuted rebuilds t's whole graph with the children of every Record and
// Choice shuffled: the same type up to the comparer's commutativity.
func permuted(t *mtype.Type, r *rand.Rand) *mtype.Type {
	memo := map[*mtype.Type]*mtype.Type{}
	var build func(n *mtype.Type) *mtype.Type
	build = func(n *mtype.Type) *mtype.Type {
		if m, ok := memo[n]; ok {
			return m
		}
		var out *mtype.Type
		switch n.Kind() {
		case mtype.KindRecursive:
			out = mtype.NewRecursive()
			memo[n] = out
			if n.Body() != nil {
				out.SetBody(build(n.Body()))
			}
			return out
		case mtype.KindRecord:
			fields := append([]mtype.Field(nil), n.Fields()...)
			r.Shuffle(len(fields), func(i, j int) { fields[i], fields[j] = fields[j], fields[i] })
			for i := range fields {
				fields[i].Type = build(fields[i].Type)
			}
			out = mtype.NewRecord(fields...)
		case mtype.KindChoice:
			alts := append([]mtype.Alt(nil), n.Alts()...)
			r.Shuffle(len(alts), func(i, j int) { alts[i], alts[j] = alts[j], alts[i] })
			for i := range alts {
				alts[i].Type = build(alts[i].Type)
			}
			out = mtype.NewChoice(alts...)
		case mtype.KindPort:
			out = mtype.NewPort(build(n.Elem()))
		default:
			out = n
		}
		memo[n] = out
		return out
	}
	return build(t)
}

// lawUniverses are walked in this order, so that a seeded row replays.
var lawUniverses = []struct {
	name string
	cfg  synth.Config
}{
	{"miniature", synth.VisualAgeMiniature()},
	{"notes", synth.NotesAPI()},
	{"collab", synth.Collab()},
	{"scaled60", synth.VisualAgeScaled(60)},
}

// TestExactIffBisimilar is the law in the form that is true: over every
// pair of declarations of a synthesized universe, in all three languages,
// Exact digests are equal exactly when the naive check says the graphs are
// bisimilar, and equal Canonical digests imply the comparer's equivalence.
func TestExactIffBisimilar(t *testing.T) {
	for _, u := range lawUniverses {
		name, types := u.name, suiteTypes(t, u.cfg)
		prints := make([]Print, len(types))
		for i, ty := range types {
			prints[i] = Of(ty)
		}
		equal, canonical := 0, 0
		for i, a := range types {
			for j, b := range types {
				if got, want := prints[i].Exact == prints[j].Exact, bisimilar(a, b); got != want {
					t.Fatalf("%s: Exact equal = %v, bisimilar = %v\n  a=%s\n  b=%s", name, got, want, a, b)
				} else if got && i != j {
					equal++
				}
				if i < j && prints[i].Canonical == prints[j].Canonical {
					canonical++
					if _, ok := compare.NewComparer(compare.DefaultRules()).Equivalent(a, b); !ok {
						t.Fatalf("%s: Canonical digests equal, comparer says not equivalent\n  a=%s\n  b=%s", name, a, b)
					}
				}
				if prints[i].Exact == prints[j].Exact && prints[i].Canonical != prints[j].Canonical {
					t.Fatalf("%s: Exact equal but Canonical differs\n  a=%s\n  b=%s", name, a, b)
				}
			}
		}
		t.Logf("%s: %d declarations, %d ordered pairs Exact-equal, %d pairs Canonical-equal", name, len(types), equal, canonical)
	}
}

// TestPresentationsShareDigests: seeded random μ-unrollings keep both
// digests; seeded random child permutations keep Canonical, and keep Exact
// exactly when the shuffle happened to leave a bisimilar graph.
func TestPresentationsShareDigests(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for _, u := range lawUniverses {
		name, moved := u.name, 0
		for _, ty := range suiteTypes(t, u.cfg) {
			want := Of(ty)
			for k := 0; k < 3; k++ {
				un := unrolling(ty, r, 1+r.Intn(6))
				if !bisimilar(ty, un) {
					t.Fatalf("%s: test bug: unrolling is not bisimilar\n  t=%s\n  u=%s", name, ty, un)
				}
				if got := Of(un); got != want {
					t.Fatalf("%s: unrolling digests %v, original %v\n  t=%s\n  u=%s", name, got, want, ty, un)
				}
				p := permuted(un, r)
				got := Of(p)
				if got.Canonical != want.Canonical {
					t.Fatalf("%s: permutation moved Canonical\n  t=%s\n  p=%s", name, ty, p)
				}
				if same := bisimilar(ty, p); (got.Exact == want.Exact) != same {
					t.Fatalf("%s: permutation: Exact equal = %v, bisimilar = %v\n  t=%s\n  p=%s", name, !same, same, ty, p)
				} else if !same {
					moved++
				}
			}
		}
		if moved == 0 {
			t.Errorf("%s: no permutation changed a declaration order; the Exact half of the row tested nothing", name)
		}
	}
}

// TestDeepLeaves holds the rows a colour cannot tell apart. A list is
// μX.Choice(Unit, Record(τ, X)), whose partition is stable after one round
// for every τ: the root's stable colour has not seen τ, and a digest taken
// from it serves list<float32> with list<int32>'s transcoder. And the
// 64-round scheme this package replaced documented its own collision: two
// graphs that first differ deeper than its round count.
func TestDeepLeaves(t *testing.T) {
	i32, f32 := mtype.NewIntegerBits(32, true), mtype.NewFloat32()
	lists := []*mtype.Type{mtype.NewList(i32), mtype.NewList(f32), mtype.NewList(mtype.NewList(i32))}
	for i, a := range lists {
		for j, b := range lists {
			pair(t, a, b, i == j, i == j)
		}
	}
	chain := func(leaf *mtype.Type) *mtype.Type {
		for i := 0; i < 70; i++ {
			leaf = mtype.NewPort(leaf)
		}
		return leaf
	}
	pair(t, chain(i32), chain(mtype.NewIntegerBits(32, true)), true, true)
	pair(t, chain(i32), chain(f32), false, false)
	// The same leaf under a record at the bottom, so the difference is an
	// order, which only Exact may see.
	pair(t, chain(mtype.RecordOf(i32, f32)), chain(mtype.RecordOf(f32, i32)), true, false)
}

// TestRecursivePresentations: one regular tree written with different
// numbers of binders and nodes — the cases where refinement must stop
// together for the Canonical walk's child order to agree.
func TestRecursivePresentations(t *testing.T) {
	f32, b := mtype.NewFloat32(), mtype.NewBool()
	// μA.record(f32, bool, choice(unit, A)) …
	one := mtype.NewRecursive()
	one.SetBody(mtype.RecordOf(f32, b, mtype.ChoiceOf(mtype.Unit(), one)))
	// … and the same with the cycle two records long, fields permuted in
	// the second.
	two := mtype.NewRecursive()
	second := mtype.RecordOf(mtype.ChoiceOf(two, mtype.Unit()), b, f32)
	two.SetBody(mtype.RecordOf(f32, b, mtype.ChoiceOf(mtype.Unit(), second)))
	pair(t, one, two, true, false)
	// In declaration order throughout, it is the same tree exactly.
	three := mtype.NewRecursive()
	third := mtype.RecordOf(f32, b, mtype.ChoiceOf(mtype.Unit(), three))
	three.SetBody(mtype.RecordOf(f32, b, mtype.ChoiceOf(mtype.Unit(), third)))
	pair(t, one, three, true, true)
	// A different leaf three records down is a different tree.
	four := mtype.NewRecursive()
	deep := mtype.RecordOf(f32, mtype.NewEnum(3), mtype.ChoiceOf(mtype.Unit(), four))
	four.SetBody(mtype.RecordOf(f32, b, mtype.ChoiceOf(mtype.Unit(), mtype.RecordOf(f32, b, mtype.ChoiceOf(mtype.Unit(), deep)))))
	pair(t, one, four, false, false)
}
