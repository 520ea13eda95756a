package compare

import (
	"math/big"
	"testing"
	"testing/quick"

	"repro/internal/mtype"
)

func eq(t *testing.T, a, b *mtype.Type) *Match {
	t.Helper()
	c := NewComparer(DefaultRules())
	m, ok := c.Equivalent(a, b)
	if !ok {
		t.Fatalf("expected %s ≡ %s\ndiagnosis:\n%s", a, b, c.Explain(a, b, ModeEqual))
	}
	return m
}

func notEq(t *testing.T, a, b *mtype.Type) {
	t.Helper()
	c := NewComparer(DefaultRules())
	if _, ok := c.Equivalent(a, b); ok {
		t.Fatalf("expected %s ≢ %s", a, b)
	}
}

func sub(t *testing.T, a, b *mtype.Type) {
	t.Helper()
	c := NewComparer(DefaultRules())
	if _, ok := c.Subtype(a, b); !ok {
		t.Fatalf("expected %s <: %s\ndiagnosis:\n%s", a, b, c.Explain(a, b, ModeSubtype))
	}
}

func notSub(t *testing.T, a, b *mtype.Type) {
	t.Helper()
	c := NewComparer(DefaultRules())
	if _, ok := c.Subtype(a, b); ok {
		t.Fatalf("expected %s not <: %s", a, b)
	}
}

func i8() *mtype.Type  { return mtype.NewIntegerBits(8, true) }
func i16() *mtype.Type { return mtype.NewIntegerBits(16, true) }
func f32() *mtype.Type { return mtype.NewFloat32() }
func f64() *mtype.Type { return mtype.NewFloat64() }
func ch() *mtype.Type  { return mtype.NewCharacter(mtype.RepLatin1) }

func TestPrimitiveEquality(t *testing.T) {
	eq(t, i8(), i8())
	eq(t, f32(), f32())
	eq(t, ch(), ch())
	eq(t, mtype.Unit(), mtype.Unit())
	notEq(t, i8(), i16())
	notEq(t, f32(), f64())
	notEq(t, ch(), mtype.NewCharacter(mtype.RepUnicode))
	notEq(t, i8(), f32())
	notEq(t, mtype.Unit(), i8())
}

func TestPrimitiveSubtyping(t *testing.T) {
	sub(t, i8(), i16())
	notSub(t, i16(), i8())
	sub(t, mtype.NewIntegerBits(8, false), i16()) // 0..255 ⊆ -32768..32767
	notSub(t, mtype.NewIntegerBits(16, false), i16())
	sub(t, ch(), mtype.NewCharacter(mtype.RepUnicode))
	notSub(t, mtype.NewCharacter(mtype.RepUnicode), ch())
	sub(t, f32(), f64())
	notSub(t, f64(), f32())
}

// TestPaperCommutativityExample is §4's own example:
// Record(Integer,Record(Real,Character)) ≡ Record(Character,Real,Integer).
func TestPaperCommutativityExample(t *testing.T) {
	a := mtype.RecordOf(i16(), mtype.RecordOf(f32(), ch()))
	b := mtype.RecordOf(ch(), f32(), i16())
	m := eq(t, a, b)
	d, err := m.Decision(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if d.Kind != DecRecord || len(d.FlatA) != 3 || len(d.FlatB) != 3 {
		t.Fatalf("decision = %+v", d)
	}
	// Integer (leaf 0 of A) must map to B leaf 2 (the Integer).
	if d.Perm[0] != 2 {
		t.Errorf("perm = %v", d.Perm)
	}
}

// TestAssociativityLineExample is §3's associativity claim: a Line
// containing two Points of two Reals matches anything with four Reals.
func TestAssociativityLineExample(t *testing.T) {
	point := mtype.RecordOf(f32(), f32())
	line := mtype.RecordOf(point, point)
	four := mtype.RecordOf(f32(), f32(), f32(), f32())
	m := eq(t, line, four)
	d, _ := m.Decision(line, four)
	if len(d.FlatA) != 4 {
		t.Errorf("line flattens to %d leaves", len(d.FlatA))
	}
	notEq(t, line, mtype.RecordOf(f32(), f32(), f32()))
}

func TestUnitElimination(t *testing.T) {
	eq(t, mtype.RecordOf(mtype.Unit(), i8()), mtype.RecordOf(i8()))
	eq(t, mtype.RecordOf(i8()), i8())
	eq(t, mtype.NewRecord(), mtype.Unit())
	eq(t, mtype.RecordOf(mtype.Unit(), mtype.Unit()), mtype.Unit())
	notEq(t, mtype.RecordOf(i8()), mtype.Unit())
}

func TestChoiceEquality(t *testing.T) {
	a := mtype.ChoiceOf(i8(), f32())
	b := mtype.ChoiceOf(f32(), i8())
	m := eq(t, a, b)
	d, _ := m.Decision(a, b)
	if d.Kind != DecChoice || d.AltMap[0] != 1 || d.AltMap[1] != 0 {
		t.Fatalf("altMap = %v", d.AltMap)
	}
	notEq(t, mtype.ChoiceOf(i8(), f32()), mtype.ChoiceOf(i8(), f32(), ch()))
	notEq(t, mtype.ChoiceOf(i8()), mtype.ChoiceOf(f32()))
}

func TestChoiceWidthSubtyping(t *testing.T) {
	narrow := mtype.ChoiceOf(i8(), f32())
	wide := mtype.ChoiceOf(ch(), f32(), i8())
	sub(t, narrow, wide)
	notSub(t, wide, narrow)
}

func TestOptionalSubtyping(t *testing.T) {
	// nonnull τ <: nullable τ: a value can be used where null is allowed.
	sub(t, mtype.RecordOf(f32()), mtype.NewOptional(mtype.RecordOf(f32())))
}

func TestPortEqualityAndContravariance(t *testing.T) {
	eq(t, mtype.NewPort(i8()), mtype.NewPort(i8()))
	notEq(t, mtype.NewPort(i8()), mtype.NewPort(i16()))
	// Contravariance: a port accepting the wider type is a subtype.
	sub(t, mtype.NewPort(i16()), mtype.NewPort(i8()))
	notSub(t, mtype.NewPort(i8()), mtype.NewPort(i16()))
}

func TestRecursiveListEquality(t *testing.T) {
	a := mtype.NewList(f32())
	b := mtype.NewList(f32())
	eq(t, a, b)
	notEq(t, mtype.NewList(f32()), mtype.NewList(f64()))
}

func TestListEqualsItsUnrolling(t *testing.T) {
	l := mtype.NewList(f32())
	unrolled := mtype.NewChoice(
		mtype.Alt{Name: "nil", Type: mtype.Unit()},
		mtype.Alt{Name: "cons", Type: mtype.NewRecord(
			mtype.Field{Name: "head", Type: f32()},
			mtype.Field{Name: "tail", Type: l},
		)},
	)
	eq(t, l, unrolled)
	eq(t, unrolled, l)
}

func TestMutuallyRecursiveGraphs(t *testing.T) {
	// Two independently built even/odd list graphs must be equivalent.
	build := func() *mtype.Type {
		even := mtype.NewRecursive()
		odd := mtype.NewRecursive()
		even.SetBody(mtype.ChoiceOf(mtype.Unit(), mtype.RecordOf(f32(), odd)))
		odd.SetBody(mtype.RecordOf(f32(), even))
		return even
	}
	eq(t, build(), build())
}

func TestRecursiveVsFlatListDiffer(t *testing.T) {
	notEq(t, mtype.NewList(f32()), mtype.RecordOf(f32(), f32()))
}

// TestFitterShapeEquivalence is the §3.4 conclusion: the annotated C and
// Java fitter Mtypes (built here structurally) are equivalent, despite the
// Java side nesting its outputs inside a Line record.
func TestFitterShapeEquivalence(t *testing.T) {
	point := func() *mtype.Type { return mtype.RecordOf(f32(), f32()) }
	cSide := mtype.NewPort(mtype.RecordOf(
		mtype.NewList(point()),
		mtype.NewPort(mtype.RecordOf(point(), point())),
	))
	line := mtype.RecordOf(point(), point())
	jSide := mtype.NewPort(mtype.RecordOf(
		mtype.NewList(point()),
		mtype.NewPort(mtype.RecordOf(line)),
	))
	eq(t, cSide, jSide)
}

func TestRulesAblation(t *testing.T) {
	point := mtype.RecordOf(f32(), f32())
	line := mtype.RecordOf(point, point)
	four := mtype.RecordOf(f32(), f32(), f32(), f32())
	shuffled := mtype.RecordOf(f32(), mtype.RecordOf(ch(), f32()))
	ordered := mtype.RecordOf(f32(), f32(), ch())

	noAssoc := DefaultRules()
	noAssoc.Associativity = false
	if _, ok := NewComparer(noAssoc).Equivalent(line, four); ok {
		t.Error("associativity disabled but nested record still matched")
	}

	noComm := DefaultRules()
	noComm.Commutativity = false
	if _, ok := NewComparer(noComm).Equivalent(shuffled, ordered); ok {
		t.Error("commutativity disabled but shuffled record still matched")
	}
	// Order-preserving still matches identical orders.
	if _, ok := NewComparer(noComm).Equivalent(mtype.RecordOf(i8(), f32()), mtype.RecordOf(i8(), f32())); !ok {
		t.Error("no-commutativity rejects identical order")
	}

	noUnit := DefaultRules()
	noUnit.UnitElimination = false
	if _, ok := NewComparer(noUnit).Equivalent(mtype.RecordOf(mtype.Unit(), i8()), mtype.RecordOf(i8())); ok {
		t.Error("unit elimination disabled but unit field still ignored")
	}
	if _, ok := NewComparer(noUnit).Equivalent(mtype.Unit(), mtype.Unit()); !ok {
		t.Error("unit ≡ unit must hold without the unit law")
	}
}

func TestCacheConsistency(t *testing.T) {
	c := NewComparer(DefaultRules())
	a := mtype.NewList(mtype.RecordOf(f32(), f32()))
	b := mtype.NewList(mtype.RecordOf(f32(), f32()))
	if _, ok := c.Equivalent(a, b); !ok {
		t.Fatal("first compare failed")
	}
	steps1 := c.Steps()
	if _, ok := c.Equivalent(a, b); !ok {
		t.Fatal("second compare failed")
	}
	if c.Steps()-steps1 > steps1 {
		t.Errorf("cache ineffective: %d then %d more steps", steps1, c.Steps()-steps1)
	}
	// Uncached comparer must agree.
	raw := DefaultRules()
	raw.Cache = false
	if _, ok := NewComparer(raw).Equivalent(a, b); !ok {
		t.Error("uncached comparer disagrees")
	}
}

func TestSameNodeFastPath(t *testing.T) {
	l := mtype.NewList(f32())
	m := eq(t, l, l)
	d, err := m.Decision(l, l)
	if err != nil {
		t.Fatal(err)
	}
	if d.Kind != DecSame {
		t.Errorf("decision = %+v, want DecSame", d)
	}
}

func TestExplainMentionsCause(t *testing.T) {
	c := NewComparer(DefaultRules())
	a := mtype.RecordOf(i8(), f32())
	b := mtype.RecordOf(i8(), f64())
	if _, ok := c.Equivalent(a, b); ok {
		t.Fatal("should not match")
	}
	diag := c.Explain(a, b, ModeEqual)
	if diag == "no mismatch recorded" {
		t.Errorf("Explain returned nothing")
	}
}

func TestRecordSubtypingDepth(t *testing.T) {
	sub(t, mtype.RecordOf(i8(), ch()), mtype.RecordOf(i16(), mtype.NewCharacter(mtype.RepUnicode)))
	notSub(t, mtype.RecordOf(i16()), mtype.RecordOf(i8()))
	// Arity must agree even for subtyping (no record width subtyping).
	notSub(t, mtype.RecordOf(i8(), i8()), mtype.RecordOf(i8()))
}

func TestListSubtyping(t *testing.T) {
	sub(t, mtype.NewList(i8()), mtype.NewList(i16()))
	notSub(t, mtype.NewList(i16()), mtype.NewList(i8()))
}

func TestDecisionsForNestedPairs(t *testing.T) {
	a := mtype.NewList(mtype.RecordOf(f32(), f32()))
	b := mtype.NewList(mtype.RecordOf(f32(), f32()))
	m := eq(t, a, b)
	// The cons-cell pair must have a record decision reachable for the
	// converter.
	consA := unfold(a).Alts()[1].Type
	consB := unfold(b).Alts()[1].Type
	d, err := m.Decision(consA, consB)
	if err != nil {
		t.Fatal(err)
	}
	if d.Kind != DecRecord {
		t.Errorf("cons decision = %+v", d)
	}
}

func TestPermutationIsBijection(t *testing.T) {
	f := func(seed int64) bool {
		rnd := lcg(seed)
		prims := []func() *mtype.Type{i8, i16, f32, f64, ch}
		n := 2 + rnd(4)
		leaves := make([]*mtype.Type, n)
		for i := range leaves {
			leaves[i] = prims[rnd(len(prims))]()
		}
		// Shuffle into b.
		permIn := make([]int, n)
		for i := range permIn {
			permIn[i] = i
		}
		for i := n - 1; i > 0; i-- {
			j := rnd(i + 1)
			permIn[i], permIn[j] = permIn[j], permIn[i]
		}
		bLeaves := make([]*mtype.Type, n)
		for i, p := range permIn {
			bLeaves[p] = leaves[i]
		}
		a := mtype.RecordOf(leaves...)
		b := mtype.RecordOf(bLeaves...)
		c := NewComparer(DefaultRules())
		m, ok := c.Equivalent(a, b)
		if !ok {
			return false
		}
		d, err := m.Decision(a, b)
		if err != nil {
			return false
		}
		// Perm must be a bijection onto the B leaves.
		seen := make(map[int]bool)
		for _, p := range d.Perm {
			if p < 0 || seen[p] {
				return false
			}
			seen[p] = true
		}
		return len(seen) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPropertyEquivalenceReflexiveSymmetric(t *testing.T) {
	f := func(seed int64) bool {
		rnd := lcg(seed)
		ty := genType(rnd, 3)
		c := NewComparer(DefaultRules())
		if _, ok := c.Equivalent(ty, ty); !ok {
			return false
		}
		other := genType(rnd, 3)
		_, ab := c.Equivalent(ty, other)
		_, ba := c.Equivalent(other, ty)
		return ab == ba
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPropertySubtypeReflexiveFromEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rnd := lcg(seed)
		a := genType(rnd, 3)
		b := genType(rnd, 3)
		c := NewComparer(DefaultRules())
		if _, isEq := c.Equivalent(a, b); isEq {
			// Equivalence implies subtyping both ways.
			c2 := NewComparer(DefaultRules())
			if _, ok := c2.Subtype(a, b); !ok {
				return false
			}
			c3 := NewComparer(DefaultRules())
			if _, ok := c3.Subtype(b, a); !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// genType builds a random Mtype of bounded depth.
func genType(rnd func(int) int, depth int) *mtype.Type {
	if depth <= 0 {
		switch rnd(5) {
		case 0:
			return i8()
		case 1:
			return i16()
		case 2:
			return f32()
		case 3:
			return ch()
		default:
			return mtype.Unit()
		}
	}
	switch rnd(4) {
	case 0:
		n := rnd(4)
		kids := make([]*mtype.Type, n)
		for i := range kids {
			kids[i] = genType(rnd, depth-1)
		}
		return mtype.RecordOf(kids...)
	case 1:
		n := 1 + rnd(3)
		kids := make([]*mtype.Type, n)
		for i := range kids {
			kids[i] = genType(rnd, depth-1)
		}
		return mtype.ChoiceOf(kids...)
	case 2:
		return mtype.NewPort(genType(rnd, depth-1))
	default:
		return mtype.NewList(genType(rnd, depth-1))
	}
}

// TestExplainUnboundRecursive: a side that unfolds to nothing (an unbound
// μ) compares false without a recorded reason; Explain used to walk its
// children and panic on the nil node.
func TestExplainUnboundRecursive(t *testing.T) {
	c := NewComparer(DefaultRules())
	mu := mtype.NewRecursive()
	for _, pair := range [][2]*mtype.Type{{mu, mtype.Unit()}, {mtype.Unit(), mu}, {mu, mu}, {nil, i8()}} {
		if _, ok := c.Equivalent(pair[0], pair[1]); ok {
			t.Fatalf("%v ≡ %v", pair[0], pair[1])
		}
		if got := c.Explain(pair[0], pair[1], ModeEqual); got != "no mismatch recorded" {
			t.Errorf("Explain = %q", got)
		}
		if got := c.FailureReason(pair[0], pair[1], ModeEqual); got != "" {
			t.Errorf("FailureReason = %q", got)
		}
	}
	// One level down the mismatch is diagnosed at the enclosing record.
	a, b := mtype.RecordOf(i8(), mu), mtype.RecordOf(i8(), f32())
	if _, ok := c.Equivalent(a, b); ok {
		t.Fatal("a record holding an unbound μ matched")
	}
	if got, want := c.Explain(a, b, ModeEqual), "record ~ record: no permutation of record leaves matches\n"; got != want {
		t.Errorf("Explain = %q, want %q", got, want)
	}
}

// TestRegisterSemanticInvalidatesFlattenMemo: flattening is memoized per
// comparer, and a registration changes what dissolves — a tagged record
// nested in a record stops being expanded once its tag names a hook.
func TestRegisterSemanticInvalidatesFlattenMemo(t *testing.T) {
	slope := mtype.RecordOf(f32(), f32()).SetTag("SlopeLine")
	points := mtype.RecordOf(f32(), f32(), f32(), f32()).SetTag("PointsLine")
	a, b := mtype.RecordOf(i8(), slope), mtype.RecordOf(i8(), points)
	c := NewComparer(DefaultRules())
	if _, ok := c.Equivalent(a, b); ok {
		t.Fatal("three leaves matched five")
	}
	c.RegisterSemantic("SlopeLine", "PointsLine", "slopeToPoints")
	m, ok := c.Subtype(a, b)
	if !ok {
		t.Fatalf("registered pair does not match:\n%s", c.Explain(a, b, ModeSubtype))
	}
	d, err := m.Decision(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.FlatA) != 2 || len(d.FlatB) != 2 {
		t.Fatalf("tagged records were dissolved: %d and %d leaves", len(d.FlatA), len(d.FlatB))
	}
	if inner, err := m.Decision(slope, points); err != nil || inner.Kind != DecSemantic || inner.Hook != "slopeToPoints" {
		t.Fatalf("inner decision = %+v, %v", inner, err)
	}
}

// lcg is the seeded generator the property tests draw from.
func lcg(seed int64) func(int) int {
	state := seed
	return func(n int) int {
		state = state*6364136223846793005 + 1442695040888963407
		v := int((state >> 33) % int64(n))
		if v < 0 {
			v += n
		}
		return v
	}
}

// widen returns a supertype of t built only from moves the subtype rules
// allow: wider integers, reals and repertoires, permuted record fields, an
// extra choice alternative, and a single-leaf value made optional. Nothing
// under a port is touched (widening there would narrow the port).
func widen(rnd func(int) int, t *mtype.Type) *mtype.Type {
	switch t.Kind() {
	case mtype.KindInteger:
		if lo, hi := t.IntegerRange(); rnd(2) == 0 && lo.IsInt64() && hi.IsInt64() && hi.Int64() < 1<<40 {
			return mtype.NewInteger(lo.Lsh(lo.Sub(lo, big.NewInt(1)), 1), hi.Lsh(hi.Add(hi, big.NewInt(1)), 1))
		}
	case mtype.KindReal:
		if rnd(2) == 0 {
			return f64()
		}
	case mtype.KindCharacter:
		if rnd(2) == 0 {
			return mtype.NewCharacter(mtype.RepUnicode)
		}
	case mtype.KindRecord:
		kids := t.Children()
		for i := range kids {
			kids[i] = widen(rnd, kids[i])
		}
		for i := len(kids) - 1; i > 0; i-- {
			j := rnd(i + 1)
			kids[i], kids[j] = kids[j], kids[i]
		}
		return mtype.RecordOf(kids...)
	case mtype.KindChoice:
		kids := t.Children()
		for i := range kids {
			kids[i] = widen(rnd, kids[i])
		}
		if rnd(2) == 0 {
			kids = append(kids, mtype.NewPort(ch()))
		}
		return mtype.ChoiceOf(kids...)
	case mtype.KindRecursive:
		if elem, ok := mtype.ListElem(t); ok {
			return mtype.NewList(widen(rnd, elem))
		}
	}
	// A unit or a record is not made optional: inside a record it dissolves
	// into zero or several leaves, the optional would be one.
	switch t.Kind() {
	case mtype.KindUnit, mtype.KindRecord, mtype.KindChoice:
		return t
	}
	if rnd(4) == 0 {
		return mtype.NewOptional(t)
	}
	return t
}

// TestPropertySubtypeTransitive: a <: b and b <: c imply a <: c, on chains
// built by widening (where both premises hold by construction) and on
// unrelated generated triples (where they rarely do).
func TestPropertySubtypeTransitive(t *testing.T) {
	isSub := func(a, b *mtype.Type) bool {
		_, ok := NewComparer(DefaultRules()).Subtype(a, b)
		return ok
	}
	chains := 0
	for seed := int64(1); seed <= 300; seed++ {
		rnd := lcg(seed)
		a := genType(rnd, 3)
		b, c := widen(rnd, a), genType(rnd, 3)
		if seed%2 == 0 {
			c = widen(rnd, b)
			if !isSub(a, b) || !isSub(b, c) {
				t.Fatalf("seed %d: widening left the subtype relation:\n a=%s\n b=%s\n c=%s", seed, a, b, c)
			}
		}
		if isSub(a, b) && isSub(b, c) {
			chains++
			if !isSub(a, c) {
				t.Errorf("seed %d: a <: b <: c but not a <: c\n a=%s\n b=%s\n c=%s", seed, a, b, c)
			}
		}
	}
	if chains < 150 {
		t.Errorf("only %d of 300 triples exercised the law", chains)
	}
}

// TestPropertyEquivalentIffMutualSubtype: Equivalent(a, b) holds exactly
// when Subtype(a, b) and Subtype(b, a) both do. Half the pairs are a type
// against a shuffled copy or a widening of itself, so both outcomes occur.
func TestPropertyEquivalentIffMutualSubtype(t *testing.T) {
	equal, unequal := 0, 0
	for seed := int64(1); seed <= 300; seed++ {
		rnd := lcg(seed)
		a := genType(rnd, 3)
		b := genType(rnd, 3)
		if seed%2 == 0 {
			b = widen(rnd, a)
		}
		_, eq := NewComparer(DefaultRules()).Equivalent(a, b)
		_, ab := NewComparer(DefaultRules()).Subtype(a, b)
		_, ba := NewComparer(DefaultRules()).Subtype(b, a)
		if eq != (ab && ba) {
			t.Errorf("seed %d: equivalent=%v but a<:b=%v, b<:a=%v\n a=%s\n b=%s", seed, eq, ab, ba, a, b)
		}
		if eq {
			equal++
		} else {
			unequal++
		}
	}
	if equal < 30 || unequal < 30 {
		t.Errorf("lopsided sample: %d equivalent, %d not", equal, unequal)
	}
}
