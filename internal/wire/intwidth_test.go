package wire_test

import (
	"fmt"
	"math/big"
	"testing"

	"repro/internal/mtype"
	"repro/internal/testutil"
	"repro/internal/wire"
)

// oracleIntWidth is IntWidth as it was written on math/big, kept as the
// reference the machine-word version is held to.
func oracleIntWidth(t *mtype.Type) (size int, signed bool, err error) {
	lo, hi := t.IntegerRange()
	signed = lo.Sign() < 0
	for _, size := range []int{1, 2, 4, 8} {
		var min, max *big.Int
		one := big.NewInt(1)
		if signed {
			max = new(big.Int).Lsh(one, uint(8*size-1))
			min = new(big.Int).Neg(max)
			max = new(big.Int).Sub(max, one)
		} else {
			min = big.NewInt(0)
			max = new(big.Int).Lsh(one, uint(8*size))
			max.Sub(max, one)
		}
		if lo.Cmp(min) >= 0 && hi.Cmp(max) <= 0 {
			return size, signed, nil
		}
	}
	return 0, false, fmt.Errorf("wire: integer range [%s..%s] exceeds 64 bits", lo, hi)
}

// TestIntWidthEdges: on every edge range, width, signedness and the error
// — message included — are the oracle's.
func TestIntWidthEdges(t *testing.T) {
	refused := 0
	for _, ty := range testutil.IntegerEdges() {
		size, signed, err := wire.IntWidth(ty)
		wantSize, wantSigned, wantErr := oracleIntWidth(ty)
		if size != wantSize || signed != wantSigned || fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Errorf("%s: IntWidth = %d, %v, %v; oracle says %d, %v, %v", ty, size, signed, err, wantSize, wantSigned, wantErr)
		}
		if err != nil {
			refused++
			if est, exact := wire.EstimateSize(ty); est != 0 || exact {
				t.Errorf("%s: EstimateSize = %d, %v for a type with no encoding", ty, est, exact)
			}
		} else if est, exact := wire.EstimateSize(ty); est != size || !exact {
			t.Errorf("%s: EstimateSize = %d, %v, want %d, true", ty, est, exact, size)
		}
	}
	if refused == 0 {
		t.Error("no edge range was refused: the error path went untested")
	}
}

// TestIntWidthAllocs: deciding a width, and estimating a size from it,
// allocates nothing for a range that fits 64 bits — no big.Int, no copy of
// the bounds.
func TestIntWidthAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race-detector instrumentation inflates allocation counts")
	}
	rec := mtype.RecordOf(mtype.NewIntegerBits(64, false), mtype.NewBool(), mtype.NewIntegerBits(16, true))
	for _, ty := range testutil.IntegerEdges() {
		if _, _, err := wire.IntWidth(ty); err != nil {
			continue
		}
		if allocs := testing.AllocsPerRun(10, func() { _, _, _ = wire.IntWidth(ty) }); allocs != 0 {
			t.Errorf("%s: IntWidth allocates %.0f times", ty, allocs)
		}
		if allocs := testing.AllocsPerRun(10, func() { _, _ = wire.EstimateSize(ty) }); allocs != 0 {
			t.Errorf("%s: EstimateSize allocates %.0f times", ty, allocs)
		}
	}
	if allocs := testing.AllocsPerRun(10, func() { _, _ = wire.EstimateSize(rec) }); allocs != 0 {
		t.Errorf("EstimateSize of a record of integers allocates %.0f times", allocs)
	}
}
