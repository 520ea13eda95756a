package testutil

import (
	"math/big"

	"repro/internal/mtype"
)

// IntegerEdges returns the Integer Mtypes on which a CDR width decision can
// go wrong: every range between two of the bounds −2ⁿ⁻¹, 2ⁿ⁻¹−1 and 2ⁿ−1
// for n in 8, 16, 32, 64, one off each on either side, and −1, 0, 1; then
// the lowerings of booleans and enumerations, and ranges of 65 and 128
// bits, which no CDR integer holds.
func IntegerEdges() []*mtype.Type {
	bounds := []*big.Int{big.NewInt(-1), big.NewInt(0), big.NewInt(1)}
	for _, n := range []uint{8, 16, 32, 64} {
		half := new(big.Int).Lsh(big.NewInt(1), n-1)
		full := new(big.Int).Lsh(big.NewInt(1), n)
		for _, edge := range []*big.Int{new(big.Int).Neg(half), new(big.Int).Sub(half, big.NewInt(1)), new(big.Int).Sub(full, big.NewInt(1))} {
			for d := int64(-1); d <= 1; d++ {
				bounds = append(bounds, new(big.Int).Add(edge, big.NewInt(d)))
			}
		}
	}
	types := []*mtype.Type{
		mtype.NewBool(), mtype.NewEnum(1), mtype.NewEnum(257),
		mtype.NewIntegerBits(65, true), mtype.NewIntegerBits(65, false),
		mtype.NewIntegerBits(128, true), mtype.NewIntegerBits(128, false),
	}
	for _, lo := range bounds {
		for _, hi := range bounds {
			if lo.Cmp(hi) <= 0 {
				types = append(types, mtype.NewInteger(lo, hi))
			}
		}
	}
	return types
}
