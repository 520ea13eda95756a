package fingerprint

import (
	"testing"

	"repro/internal/mtype"
)

// TestGoldenDigests pins Of to bytes captured at commit 8f8aa6e. Digests
// are cache keys that cross process boundaries (cluster warming), so a
// faster refine must not move a single one of them.
func TestGoldenDigests(t *testing.T) {
	f32, i16, ch := mtype.NewFloat32(), mtype.NewIntegerBits(16, true), mtype.NewCharacter(mtype.RepLatin1)
	list := mtype.NewList(f32)
	unrolled := mtype.NewChoice(
		mtype.Alt{Name: "nil", Type: mtype.Unit()},
		mtype.Alt{Name: "cons", Type: mtype.RecordOf(f32, list)},
	)
	wide := make([]*mtype.Type, 40)
	for i := range wide {
		wide[i] = mtype.NewIntegerBits(1+i%7, i%2 == 0)
	}
	for _, tc := range []struct {
		name             string
		t                *mtype.Type
		canonical, exact string
	}{
		{"nil", nil, "6d626972643a6e696c2d747970652121", "6d626972643a6e696c2d747970652121"},
		{"unbound-mu", mtype.NewRecursive(), "6d626972643a6e696c2d747970652121", "6d626972643a6e696c2d747970652121"},
		{"int16", i16, "deadeaeaa0bf89861fd6650b41ab6ad3", "deadeaeaa0bf89861fd6650b41ab6ad3"},
		{"bool", mtype.NewBool(), "46eee79dc46d891d318def5b4aca18c3", "46eee79dc46d891d318def5b4aca18c3"},
		{"float32", f32, "8efc6d66de11db52834c000f731152e8", "8efc6d66de11db52834c000f731152e8"},
		{"latin1", ch, "5eadf7e38132076cfd86755ac012bdb9", "5eadf7e38132076cfd86755ac012bdb9"},
		{"unit", mtype.Unit(), "49abcd59c5d76ef58b59652178dc2ed5", "49abcd59c5d76ef58b59652178dc2ed5"},
		{"record", mtype.RecordOf(i16, mtype.RecordOf(f32, ch)), "e1059b89ace096f67657bd49e32e9046", "d69b1326f1f61ffae230ebbf87ee64ac"},
		{"record-permuted", mtype.RecordOf(mtype.RecordOf(ch, f32), i16), "e1059b89ace096f67657bd49e32e9046", "947f93eb2e90e89373e048c849f14f5a"},
		{"list", list, "5e02c87d2f27a541aaea4004c429e94c", "2e937f3a2bbd91d7a5a18f47b93e8902"},
		{"list-unrolled", unrolled, "5e02c87d2f27a541aaea4004c429e94c", "2e937f3a2bbd91d7a5a18f47b93e8902"},
		{"function", mtype.NewFunction(
			[]mtype.Field{{Name: "pts", Type: mtype.NewList(mtype.RecordOf(f32, f32))}, {Name: "flag", Type: mtype.NewOptional(mtype.NewBool())}},
			[]mtype.Field{{Name: "r", Type: mtype.NewFloat64()}}), "d47db84f77a515f6d1a7d3f478a4ace7", "284ea44a8c386caf7b60a716b9e8230e"},
		{"wide-record", mtype.RecordOf(wide...), "a5906fca454891f07f1a740b15c40ff8", "0531cd84670783b351f0f6a9d1af5b4a"},
	} {
		p := Of(tc.t)
		if p.Canonical.String() != tc.canonical || p.Exact.String() != tc.exact {
			t.Errorf("%s: Of = %s / %s, pinned %s / %s", tc.name, p.Canonical, p.Exact, tc.canonical, tc.exact)
		}
	}
}
