package transcode

import (
	"testing"

	"repro/internal/mtype"
	"repro/internal/testutil"
	"repro/internal/wire"
)

// oracleIntChecked is intChecked as it was written on copies of the
// bounds, kept as the reference for the machine-word version.
func oracleIntChecked(ut *mtype.Type) bool {
	size, signed, err := wire.IntWidth(ut)
	if err != nil {
		return true
	}
	lo, hi := ut.IntegerRange()
	if signed {
		shift := uint(8*size - 1)
		min := int64(-1) << shift
		max := int64(1)<<shift - 1
		return !lo.IsInt64() || !hi.IsInt64() || lo.Int64() != min || hi.Int64() != max
	}
	var max uint64
	if size == 8 {
		max = ^uint64(0)
	} else {
		max = uint64(1)<<uint(8*size) - 1
	}
	return lo.Sign() != 0 || !hi.IsUint64() || hi.Uint64() != max
}

// TestIntCheckedEdges: on every edge range the vacuous-check decision, and
// the range check compiled from it, are the oracle's; and neither
// allocates for a range that fits 64 bits.
func TestIntCheckedEdges(t *testing.T) {
	vacuous := 0
	for _, ty := range testutil.IntegerEdges() {
		got, want := intChecked(ty), oracleIntChecked(ty)
		if got != want {
			t.Errorf("%s: intChecked = %v, oracle says %v", ty, got, want)
		}
		rc, err := intRange(ty)
		if _, _, werr := wire.IntWidth(ty); (err != nil) != (werr != nil) {
			t.Errorf("%s: intRange error %v, IntWidth error %v", ty, err, werr)
			continue
		} else if err != nil {
			continue
		}
		if !want {
			vacuous++
		}
		if (rc.kind != rangeNone) != want {
			t.Errorf("%s: range check %+v, oracle says checked = %v", ty, rc, want)
		}
		if lo, hi := ty.IntegerRange(); rc.kind == rangeSigned && (int64(rc.lo) != lo.Int64() || int64(rc.hi) != hi.Int64()) ||
			rc.kind == rangeUnsigned && (rc.lo != lo.Uint64() || rc.hi != hi.Uint64()) {
			t.Errorf("%s: range check %+v carries other bounds", ty, rc)
		}
		if testutil.RaceEnabled {
			continue
		}
		if allocs := testing.AllocsPerRun(10, func() { intChecked(ty); _, _ = intRange(ty) }); allocs != 0 {
			t.Errorf("%s: intChecked and intRange allocate %.0f times", ty, allocs)
		}
	}
	if vacuous != 8 { // a signed and an unsigned full range per width
		t.Errorf("%d edge ranges fill their width, want 8", vacuous)
	}
}
