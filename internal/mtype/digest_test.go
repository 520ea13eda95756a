package mtype_test

import (
	"testing"
	"testing/quick"

	"repro/internal/fingerprint"
	"repro/internal/mtype"
)

// What these tests held mtype's own Fingerprint and ShapeKey to, they hold
// package fingerprint to — the fingerprinter every product path uses —
// from outside the package, fingerprint importing mtype. Its law tests
// cover each over whole suites: distinct primitives and shapes stay
// distinct (TestExactIffBisimilar, every pair of suite declarations),
// separately built graphs agree (TestPresentationsShareDigests), a list
// and its unrollings agree (TestPresentationsShareDigests' unrolling row,
// TestDeepLeaves for the element a stable colour has not seen), and child
// order moves Exact and not Canonical (its permutation row).

func TestShapeKeysDiffer(t *testing.T) {
	distinct := []*mtype.Type{
		mtype.NewIntegerBits(8, true),
		mtype.NewIntegerBits(8, false),
		mtype.NewCharacter(mtype.RepASCII),
		mtype.NewCharacter(mtype.RepUnicode),
		mtype.NewFloat32(),
		mtype.NewFloat64(),
		mtype.Unit(),
		mtype.RecordOf(mtype.Unit()),
		mtype.RecordOf(mtype.Unit(), mtype.Unit()),
		mtype.ChoiceOf(mtype.Unit()),
		mtype.NewPort(mtype.Unit()),
		mtype.NewList(mtype.Unit()),
	}
	seen := make(map[fingerprint.Digest]int)
	for i, ty := range distinct {
		key := fingerprint.Canonical(ty)
		if j, dup := seen[key]; dup {
			t.Errorf("types %d and %d share digest %s", i, j, key)
		}
		seen[key] = i
	}
}

func TestFingerprintIdentityInsensitive(t *testing.T) {
	a := mtype.NewList(mtype.RecordOf(mtype.NewFloat32(), mtype.NewFloat32()))
	b := mtype.NewList(mtype.RecordOf(mtype.NewFloat32(), mtype.NewFloat32()))
	if fingerprint.Of(a) != fingerprint.Of(b) {
		t.Error("separately built isomorphic graphs should fingerprint equal")
	}
}

func TestFingerprintShapeSensitive(t *testing.T) {
	pairs := [][2]*mtype.Type{
		{mtype.NewFloat32(), mtype.NewFloat64()},
		{mtype.RecordOf(mtype.NewFloat32()), mtype.RecordOf(mtype.NewFloat64())},
		{mtype.NewList(mtype.NewFloat32()), mtype.NewList(mtype.NewFloat64())},
		{mtype.NewPort(mtype.Unit()), mtype.Unit()},
		{mtype.RecordOf(mtype.Unit(), mtype.NewFloat32()), mtype.RecordOf(mtype.NewFloat32(), mtype.Unit())},
	}
	for i, p := range pairs {
		if fingerprint.Exact(p[0]) == fingerprint.Exact(p[1]) {
			t.Errorf("pair %d: distinct shapes fingerprint equal (%s vs %s)", i, p[0], p[1])
		}
	}
}

func TestFingerprintUnrolledListEqual(t *testing.T) {
	// An unrolled list choice(unit, record(τ, μL...)) denotes the same
	// regular tree as the list itself; the digests name that tree, so the
	// two must agree.
	elem := mtype.NewFloat32()
	l := mtype.NewList(elem)
	unrolled := mtype.NewChoice(
		mtype.Alt{Name: "nil", Type: mtype.Unit()},
		mtype.Alt{Name: "cons", Type: mtype.NewRecord(mtype.Field{Name: "head", Type: elem}, mtype.Field{Name: "tail", Type: l})},
	)
	if fingerprint.Of(l) != fingerprint.Of(unrolled) {
		t.Error("one-step unrolling changed the fingerprint")
	}
}

func TestPropertyFingerprintDeterministic(t *testing.T) {
	f := func(seed int64) bool {
		build := func() *mtype.Type {
			state := seed
			return mtype.GenType(func(n int) int {
				state = state*6364136223846793005 + 1442695040888963407
				v := int((state >> 33) % int64(n))
				if v < 0 {
					v += n
				}
				return v
			}, 3)
		}
		return fingerprint.Of(build()) == fingerprint.Of(build())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
