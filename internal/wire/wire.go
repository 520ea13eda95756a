// Package wire marshals values to bytes guided by their Mtype, in the
// style of CORBA CDR (the encoding under IIOP, which the paper's
// network-enabled stubs speak): little-endian primitives aligned to their
// size, length-prefixed sequences, and discriminated unions with a 4-byte
// discriminant. The Mtype drives both directions, so any two declarations
// that lower to equivalent Mtypes interoperate across the wire without an
// IDL file.
//
// The low-level primitives (AppendUint, ReadUint, AlignUp, the width
// functions) are exported so layout-aware consumers — notably
// internal/transcode, which rewrites CDR bytes without building value
// trees — stay bit-compatible with this package by construction.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/big"

	"repro/internal/limits"
	"repro/internal/mtype"
	"repro/internal/value"
)

// MaxDecodeDepth bounds the nesting depth of decoded values (and of the
// type structure driving the decode). Without it a hostile body for a
// recursive type — or a hostile dynamic type descriptor — drives decode
// into unbounded recursion and blows the stack. Violations wrap
// limits.ErrBudget.
const MaxDecodeDepth = limits.DefaultMaxValueDepth

// maxUnfold bounds the Recursive-node unwrapping loop: a cycle of
// Recursive nodes with no structural node in between would otherwise spin
// forever. No legitimate type nests binders this deep.
const maxUnfold = 1 << 10

// Encoder marshals values of one Mtype. Create with NewEncoder; the
// encoder precomputes nothing and is safe to reuse sequentially.
type Encoder struct {
	ty *mtype.Type
}

// NewEncoder returns an encoder for values of ty.
func NewEncoder(ty *mtype.Type) *Encoder { return &Encoder{ty: ty} }

// Marshal encodes v.
func (e *Encoder) Marshal(v value.Value) ([]byte, error) {
	var buf []byte
	if est, _ := EstimateSize(e.ty); est > 0 {
		buf = make([]byte, 0, est)
	}
	return e.MarshalAppend(buf, v)
}

// MarshalAppend encodes v and appends the bytes to dst, returning the
// extended slice. Alignment is relative to len(dst) at entry, so the
// appended bytes are identical to a standalone Marshal — callers can pack
// multiple independently-framed values into one buffer.
func (e *Encoder) MarshalAppend(dst []byte, v value.Value) ([]byte, error) {
	out, err := encode(dst, len(dst), e.ty, v)
	if err != nil {
		return dst, err
	}
	return out, nil
}

// Decoder unmarshals values of one Mtype.
type Decoder struct {
	ty *mtype.Type
}

// NewDecoder returns a decoder for values of ty.
func NewDecoder(ty *mtype.Type) *Decoder { return &Decoder{ty: ty} }

// Unmarshal decodes one value and requires the input to be fully
// consumed.
func (d *Decoder) Unmarshal(data []byte) (value.Value, error) {
	v, rest, err := decode(data, 0, d.ty, 0)
	if err != nil {
		return nil, err
	}
	if rest != len(data) {
		return nil, fmt.Errorf("wire: %d trailing bytes", len(data)-rest)
	}
	return v, nil
}

// Marshal is a convenience one-shot encoder.
func Marshal(ty *mtype.Type, v value.Value) ([]byte, error) {
	return NewEncoder(ty).Marshal(v)
}

// Unmarshal is a convenience one-shot decoder.
func Unmarshal(ty *mtype.Type, data []byte) (value.Value, error) {
	return NewDecoder(ty).Unmarshal(data)
}

// UnmarshalPrefix decodes one value of ty from the front of data and
// returns the number of bytes consumed, allowing callers to frame a CDR
// value followed by further payload (the broker protocol's convert op
// does exactly this). Alignment is relative to the start of data.
func UnmarshalPrefix(ty *mtype.Type, data []byte) (value.Value, int, error) {
	v, n, err := decode(data, 0, ty, 0)
	if err != nil {
		return nil, 0, err
	}
	return v, n, nil
}

// Unfold strips Recursive binders until a structural node is reached. It
// returns nil if the unwrapping budget is exhausted (a degenerate cycle
// of binders with no structure in between).
func Unfold(t *mtype.Type) *mtype.Type {
	for i := 0; t != nil && t.Kind() == mtype.KindRecursive; i++ {
		if i >= maxUnfold {
			return nil
		}
		t = t.Body()
	}
	return t
}

func unfold(t *mtype.Type) *mtype.Type { return Unfold(t) }

// listShape recognizes the recursive list encoding
// μL.Choice(Unit, Record(τ, L)) and returns its element type, so lists go
// on the wire as CDR sequences (length + elements) rather than one
// discriminant per cons cell.
func listShape(t *mtype.Type) (elem *mtype.Type, ok bool) {
	return mtype.ListElem(t)
}

// IntWidth returns the CDR width (1, 2, 4, or 8 bytes) and signedness
// able to hold the integer type's range. It reads the bounds as machine
// words and allocates only on the error path.
func IntWidth(t *mtype.Type) (size int, signed bool, err error) {
	lo, hi, signed, ok := t.IntegerWords()
	if !ok {
		lo, hi := t.IntegerRange()
		return 0, false, fmt.Errorf("wire: integer range [%s..%s] exceeds 64 bits", lo, hi)
	}
	// The narrowest width whose sign-extension (signed) or zero-extension
	// (unsigned) reproduces both bounds.
	for size = 1; size < 8; size *= 2 {
		shift := uint(64 - 8*size)
		if signed && uint64(int64(lo<<shift)>>shift) == lo && uint64(int64(hi<<shift)>>shift) == hi {
			break
		}
		if !signed && hi>>(8*size) == 0 {
			break
		}
	}
	return size, signed, nil
}

// CharWidth returns the CDR width (1, 2, or 4 bytes) of the character
// type's repertoire.
func CharWidth(t *mtype.Type) int {
	switch t.Repertoire() {
	case mtype.RepASCII, mtype.RepLatin1:
		return 1
	case mtype.RepUCS2:
		return 2
	default:
		return 4
	}
}

// RealWidth returns the CDR width (4 or 8 bytes) able to hold the real
// type's precision and exponent.
func RealWidth(t *mtype.Type) (int, error) {
	p, e := t.RealParams()
	switch {
	case p <= 24 && e <= 8:
		return 4, nil
	case p <= 53 && e <= 11:
		return 8, nil
	default:
		return 0, fmt.Errorf("wire: real(%d,%d) exceeds binary64", p, e)
	}
}

// align pads buf to a multiple of n bytes past base (CDR primitive
// alignment, relative to the start of the enclosing value).
func align(buf []byte, base, n int) []byte {
	var zeros [8]byte
	return append(buf, zeros[:(base-len(buf))&(n-1)]...) // n is 1, 2, 4 or 8
}

// AppendUint aligns buf to size bytes past base, then appends u as a
// little-endian integer of that size. size must be 1, 2, 4, or 8.
func AppendUint(buf []byte, base, size int, u uint64) []byte {
	buf = align(buf, base, size)
	switch size {
	case 1:
		buf = append(buf, byte(u))
	case 2:
		buf = binary.LittleEndian.AppendUint16(buf, uint16(u))
	case 4:
		buf = binary.LittleEndian.AppendUint32(buf, uint32(u))
	case 8:
		buf = binary.LittleEndian.AppendUint64(buf, u)
	}
	return buf
}

func putUint(buf []byte, base, size int, u uint64) []byte {
	return AppendUint(buf, base, size, u)
}

func encode(buf []byte, base int, t *mtype.Type, v value.Value) ([]byte, error) {
	if elem, ok := listShape(t); ok {
		elems, err := value.ToSlice(v)
		if err != nil {
			return nil, err
		}
		buf = putUint(buf, base, 4, uint64(len(elems)))
		for i, e := range elems {
			buf, err = encode(buf, base, elem, e)
			if err != nil {
				return nil, fmt.Errorf("element %d: %w", i, err)
			}
		}
		return buf, nil
	}
	ut := unfold(t)
	if ut == nil {
		return nil, fmt.Errorf("wire: unbound recursive type")
	}
	switch ut.Kind() {
	case mtype.KindInteger:
		iv, ok := v.(value.Int)
		if !ok || iv.V == nil {
			return nil, fmt.Errorf("wire: integer wants Int, got %T", v)
		}
		if !ut.IntegerContains(iv.V) {
			lo, hi := ut.IntegerRange()
			return nil, fmt.Errorf("wire: %s outside range [%s..%s]", iv.V, lo, hi)
		}
		size, signed, err := IntWidth(ut)
		if err != nil {
			return nil, err
		}
		var u uint64
		if signed {
			u = uint64(iv.V.Int64())
		} else {
			u = iv.V.Uint64()
		}
		return putUint(buf, base, size, u), nil
	case mtype.KindCharacter:
		cv, ok := v.(value.Char)
		if !ok {
			return nil, fmt.Errorf("wire: character wants Char, got %T", v)
		}
		return putUint(buf, base, CharWidth(ut), uint64(cv.R)), nil
	case mtype.KindReal:
		rv, ok := v.(value.Real)
		if !ok {
			return nil, fmt.Errorf("wire: real wants Real, got %T", v)
		}
		size, err := RealWidth(ut)
		if err != nil {
			return nil, err
		}
		if size == 4 {
			return putUint(buf, base, 4, uint64(math.Float32bits(float32(rv.V)))), nil
		}
		return putUint(buf, base, 8, math.Float64bits(rv.V)), nil
	case mtype.KindUnit:
		if _, ok := v.(value.Unit); !ok {
			return nil, fmt.Errorf("wire: unit wants Unit, got %T", v)
		}
		return buf, nil
	case mtype.KindRecord:
		rv, ok := v.(value.Record)
		if !ok {
			return nil, fmt.Errorf("wire: record wants Record, got %T", v)
		}
		fields := ut.Fields()
		if len(rv.Fields) != len(fields) {
			return nil, fmt.Errorf("wire: record has %d fields, type wants %d", len(rv.Fields), len(fields))
		}
		var err error
		for i, f := range fields {
			buf, err = encode(buf, base, f.Type, rv.Fields[i])
			if err != nil {
				return nil, fmt.Errorf("field %d (%s): %w", i, f.Name, err)
			}
		}
		return buf, nil
	case mtype.KindChoice:
		cv, ok := v.(value.Choice)
		if !ok {
			return nil, fmt.Errorf("wire: choice wants Choice, got %T", v)
		}
		alts := ut.Alts()
		if cv.Alt < 0 || cv.Alt >= len(alts) {
			return nil, fmt.Errorf("wire: alternative %d out of range", cv.Alt)
		}
		buf = putUint(buf, base, 4, uint64(cv.Alt))
		return encode(buf, base, alts[cv.Alt].Type, cv.V)
	case mtype.KindPort:
		pv, ok := v.(value.Port)
		if !ok {
			return nil, fmt.Errorf("wire: port wants Port, got %T", v)
		}
		buf = putUint(buf, base, 4, uint64(len(pv.Ref)))
		return append(buf, pv.Ref...), nil
	default:
		return nil, fmt.Errorf("wire: cannot encode %s", ut.Kind())
	}
}

// AlignUp rounds off up to a multiple of n.
func AlignUp(off, n int) int {
	return (off + n - 1) / n * n
}

// ErrShort marks errors caused by the input ending before the value did.
// Streaming decoders classify on it: while more input may still arrive, a
// wrapped ErrShort means "feed me more bytes", whereas any other decode
// error is final no matter how much input follows. One-shot decoding
// semantics are unchanged — the sentinel only adds errors.Is identity to
// the truncation errors that already existed.
var ErrShort = errors.New("truncated input")

// ReadUint aligns off to size bytes (relative to the start of data),
// bounds-checks, and reads a little-endian integer of that size,
// returning the value and the offset just past it.
func ReadUint(data []byte, off, size int) (uint64, int, error) {
	off = AlignUp(off, size)
	if off+size > len(data) {
		return 0, 0, fmt.Errorf("wire: %w at offset %d", ErrShort, off)
	}
	var u uint64
	switch size {
	case 1:
		u = uint64(data[off])
	case 2:
		u = uint64(binary.LittleEndian.Uint16(data[off:]))
	case 4:
		u = uint64(binary.LittleEndian.Uint32(data[off:]))
	case 8:
		u = binary.LittleEndian.Uint64(data[off:])
	}
	return u, off + size, nil
}

func getUint(data []byte, off, size int) (uint64, int, error) {
	return ReadUint(data, off, size)
}

// MaxListLen bounds decoded list lengths to keep malformed or hostile
// inputs from exhausting memory.
const MaxListLen = 1 << 24

// EstimateSize returns a lower bound on the encoded size of a value of t
// (assuming the value starts at alignment 0), and whether that bound is
// exact — it is exact precisely when the type is fixed-size (no lists,
// choices, or ports anywhere). Callers use it to pre-size encode buffers
// and pooled scratch.
func EstimateSize(t *mtype.Type) (int, bool) {
	end, exact := estimateAt(t, 0, make(map[*mtype.Type]bool))
	return end, exact
}

func estimateAt(t *mtype.Type, off int, seen map[*mtype.Type]bool) (int, bool) {
	if seen[t] {
		return off, false
	}
	seen[t] = true
	defer delete(seen, t)
	if _, ok := listShape(t); ok {
		return AlignUp(off, 4) + 4, false
	}
	ut := unfold(t)
	if ut == nil {
		return off, false
	}
	switch ut.Kind() {
	case mtype.KindInteger:
		size, _, err := IntWidth(ut)
		if err != nil {
			return off, false
		}
		return AlignUp(off, size) + size, true
	case mtype.KindCharacter:
		size := CharWidth(ut)
		return AlignUp(off, size) + size, true
	case mtype.KindReal:
		size, err := RealWidth(ut)
		if err != nil {
			return off, false
		}
		return AlignUp(off, size) + size, true
	case mtype.KindUnit:
		return off, true
	case mtype.KindRecord:
		exact := true
		for _, f := range ut.Fields() {
			var fe bool
			off, fe = estimateAt(f.Type, off, seen)
			exact = exact && fe
			if !fe {
				// Past the first variable-size field the running
				// offset is a lower bound only; stop accumulating.
				return off, false
			}
		}
		return off, exact
	case mtype.KindChoice:
		off = AlignUp(off, 4) + 4
		min, first := 0, true
		for _, a := range ut.Alts() {
			end, _ := estimateAt(a.Type, off, seen)
			if first || end < min {
				min, first = end, false
			}
		}
		if first {
			return off, false
		}
		return min, false
	case mtype.KindPort:
		return AlignUp(off, 4) + 4, false
	default:
		return off, false
	}
}

const maxWireList = MaxListLen

func decode(data []byte, off int, t *mtype.Type, depth int) (value.Value, int, error) {
	if depth > MaxDecodeDepth {
		return nil, 0, limits.Exceededf("wire: value nesting exceeds depth budget of %d", MaxDecodeDepth)
	}
	if elem, ok := listShape(t); ok {
		n, off, err := getUint(data, off, 4)
		if err != nil {
			return nil, 0, err
		}
		if n > maxWireList {
			return nil, 0, limits.Exceededf("wire: list length %d exceeds limit of %d", n, maxWireList)
		}
		elems := make([]value.Value, n)
		for i := range elems {
			var ev value.Value
			ev, off, err = decode(data, off, elem, depth+1)
			if err != nil {
				return nil, 0, fmt.Errorf("element %d: %w", i, err)
			}
			elems[i] = ev
		}
		return value.FromSlice(elems), off, nil
	}
	ut := unfold(t)
	if ut == nil {
		return nil, 0, fmt.Errorf("wire: unbound recursive type")
	}
	switch ut.Kind() {
	case mtype.KindInteger:
		size, signed, err := IntWidth(ut)
		if err != nil {
			return nil, 0, err
		}
		u, off, err := getUint(data, off, size)
		if err != nil {
			return nil, 0, err
		}
		var iv value.Int
		if signed {
			shift := uint(64 - 8*size)
			iv = value.NewInt(int64(u<<shift) >> shift)
		} else {
			iv = value.Int{V: new(big.Int).SetUint64(u)}
		}
		if !ut.IntegerContains(iv.V) {
			lo, hi := ut.IntegerRange()
			return nil, 0, fmt.Errorf("wire: decoded %s outside range [%s..%s]", iv.V, lo, hi)
		}
		return iv, off, nil
	case mtype.KindCharacter:
		u, off, err := getUint(data, off, CharWidth(ut))
		if err != nil {
			return nil, 0, err
		}
		return value.Char{R: rune(u)}, off, nil
	case mtype.KindReal:
		size, err := RealWidth(ut)
		if err != nil {
			return nil, 0, err
		}
		u, off, err := getUint(data, off, size)
		if err != nil {
			return nil, 0, err
		}
		if size == 4 {
			return value.Real{V: float64(math.Float32frombits(uint32(u)))}, off, nil
		}
		return value.Real{V: math.Float64frombits(u)}, off, nil
	case mtype.KindUnit:
		return value.Unit{}, off, nil
	case mtype.KindRecord:
		fields := ut.Fields()
		out := make([]value.Value, len(fields))
		var err error
		for i, f := range fields {
			out[i], off, err = decode(data, off, f.Type, depth+1)
			if err != nil {
				return nil, 0, fmt.Errorf("field %d (%s): %w", i, f.Name, err)
			}
		}
		return value.Record{Fields: out}, off, nil
	case mtype.KindChoice:
		disc, off, err := getUint(data, off, 4)
		if err != nil {
			return nil, 0, err
		}
		alts := ut.Alts()
		if disc >= uint64(len(alts)) {
			return nil, 0, fmt.Errorf("wire: discriminant %d out of range (%d alternatives)", disc, len(alts))
		}
		payload, off, err := decode(data, off, alts[disc].Type, depth+1)
		if err != nil {
			return nil, 0, err
		}
		return value.Choice{Alt: int(disc), V: payload}, off, nil
	case mtype.KindPort:
		n, off, err := getUint(data, off, 4)
		if err != nil {
			return nil, 0, err
		}
		if uint64(off)+n > uint64(len(data)) {
			return nil, 0, fmt.Errorf("wire: truncated port reference")
		}
		ref := string(data[off : off+int(n)])
		return value.Port{Ref: ref}, off + int(n), nil
	default:
		return nil, 0, fmt.Errorf("wire: cannot decode %s", ut.Kind())
	}
}
