package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/big"
	"sort"

	"repro/internal/mtype"
	"repro/internal/value"
)

// rng is the benchmark's own generator (splitmix64), so that a seed means
// the same inputs whatever the Go release's math/rand does.
type rng struct{ s uint64 }

func newRNG(seed uint64, stream string) *rng {
	h := sha256.Sum256([]byte(fmt.Sprintf("%d/%s", seed, stream)))
	var s uint64
	for _, b := range h[:8] {
		s = s<<8 | uint64(b)
	}
	return &rng{s: s}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// float returns a uniform value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// quarter returns a real every binary32 holds exactly: a multiple of a
// quarter in ±4096, so float and double fields convert without rounding.
func (r *rng) quarter() float64 { return float64(r.intn(32769)-16384) / 4 }

// zipf draws ranks 0..n-1 with probability ∝ 1/(rank+1)^s. math/rand's
// Zipf needs s > 1; the workloads want s = 1.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) *zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for k := 0; k < n; k++ {
		sum += 1 / math.Pow(float64(k+1), s)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return &zipf{cdf: cdf}
}

func (z *zipf) draw(r *rng) int {
	i := sort.SearchFloat64s(z.cdf, r.float())
	if i >= len(z.cdf) {
		i = len(z.cdf) - 1
	}
	return i
}

// genValue walks an Mtype and builds a seeded value of it: integers inside
// the declared range, reals exact in binary32, lower-case letters. It
// covers the kinds the synthesized data classes lower to (records of
// primitives and of other records); anything else is an error, not a
// guess.
func genValue(t *mtype.Type, r *rng) (value.Value, error) {
	switch t.Kind() {
	case mtype.KindInteger:
		lo, hi := t.IntegerRange()
		width := new(big.Int).Sub(hi, lo)
		if !width.IsInt64() || width.Int64() > 1<<20 {
			width = big.NewInt(1 << 20) // stay near the middle: every wider type holds it
		}
		off := big.NewInt(int64(r.next() % uint64(width.Int64()+1)))
		// Center on zero when the range allows, so signs vary.
		if lo.Sign() < 0 && hi.Sign() > 0 {
			v := new(big.Int).Sub(off, new(big.Int).Rsh(width, 1))
			if v.Cmp(lo) >= 0 && v.Cmp(hi) <= 0 {
				return value.Int{V: v}, nil
			}
		}
		return value.Int{V: off.Add(off, lo)}, nil
	case mtype.KindReal:
		return value.Real{V: r.quarter()}, nil
	case mtype.KindCharacter:
		return value.Char{R: rune('a' + r.intn(26))}, nil
	case mtype.KindRecord:
		fields := make([]value.Value, len(t.Fields()))
		for i, f := range t.Fields() {
			v, err := genValue(f.Type, r)
			if err != nil {
				return nil, err
			}
			fields[i] = v
		}
		return value.Record{Fields: fields}, nil
	default:
		return nil, fmt.Errorf("gen: no generator for Mtype kind %s", t.Kind())
	}
}

// digest names a set of generated inputs: same seed ⇒ same digest,
// another seed ⇒ another.
type digest struct{ h hash.Hash }

func newDigest() *digest               { return &digest{h: sha256.New()} }
func (d *digest) bytes(b []byte)       { d.h.Write(b) }
func (d *digest) str(s string)         { d.h.Write([]byte(s)); d.h.Write([]byte{0}) }
func (d *digest) sum() string          { return hex.EncodeToString(d.h.Sum(nil)[:8]) }
func (d *digest) ints(vs ...int)       { d.str(fmt.Sprint(vs)) }
func (d *digest) floats(vs ...float32) { d.str(fmt.Sprint(vs)) }
