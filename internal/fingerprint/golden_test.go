package fingerprint

import (
	"testing"

	"repro/internal/mtype"
)

// TestGoldenDigests pins Of to the bytes of the quotient-serialisation
// digest (re-pinned when it replaced the 64-round one of 8f8aa6e), so that
// a change to the function is a decision and not an accident. It is only
// that: no wire carries a digest. Broker peers route and warm by names and
// load records (cluster.RouteKey, broker.WarmEntry), and the gateway's
// fleet route key only places a route on the ring, so a fleet whose members
// disagree on the function for the length of a rolling restart re-homes
// some routes once and mis-serves nothing; there is no version byte because
// nothing would read it.
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
		{"int16", i16, "8da0a6632265eeb67c70d83c6eb60914", "8da0a6632265eeb67c70d83c6eb60914"},
		{"bool", mtype.NewBool(), "c5af34941626b2c7eba85bbf16a827f9", "c5af34941626b2c7eba85bbf16a827f9"},
		{"float32", f32, "6c234744ab2de6942ffa0e0aceb7991c", "6c234744ab2de6942ffa0e0aceb7991c"},
		{"latin1", ch, "8f420c434a92cf079c384beaa9c23687", "8f420c434a92cf079c384beaa9c23687"},
		{"unit", mtype.Unit(), "d1d87f62b011288e015ceda918e34414", "d1d87f62b011288e015ceda918e34414"},
		{"record", mtype.RecordOf(i16, mtype.RecordOf(f32, ch)), "1020395651aca119ac500d25362eba72", "c9dcb151b6c85e171dae15d0089e83b4"},
		{"record-permuted", mtype.RecordOf(mtype.RecordOf(ch, f32), i16), "1020395651aca119ac500d25362eba72", "650e80f5bb2cc28da61f655eb74821f6"},
		{"list", list, "403820e4690c00fbd1c368511f2bbe58", "403820e4690c00fbd1c368511f2bbe58"},
		{"list-unrolled", unrolled, "403820e4690c00fbd1c368511f2bbe58", "403820e4690c00fbd1c368511f2bbe58"},
		{"function", mtype.NewFunction(
			[]mtype.Field{{Name: "pts", Type: mtype.NewList(mtype.RecordOf(f32, f32))}, {Name: "flag", Type: mtype.NewOptional(mtype.NewBool())}},
			[]mtype.Field{{Name: "r", Type: mtype.NewFloat64()}}), "718a46262c0b856387496352bb173d55", "363026e98bba06cd41adf003db81f5c1"},
		{"wide-record", mtype.RecordOf(wide...), "bdcceb1bd3cb9d1957b31d21041ad840", "ff6367d0bd766238399b3eae9d425407"},
	} {
		p := Of(tc.t)
		if p.Canonical.String() != tc.canonical || p.Exact.String() != tc.exact {
			t.Errorf("%s: Of = %s / %s, pinned %s / %s", tc.name, p.Canonical, p.Exact, tc.canonical, tc.exact)
		}
	}
}
