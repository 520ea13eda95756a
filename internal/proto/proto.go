// Package proto holds the CDR building blocks shared by the admin-plane
// protocols of the mbird daemons (the broker in internal/broker, the
// interop gateway in internal/gateway, the peer plane in
// internal/cluster). Every protocol payload is CDR, marshaled by package
// wire against small protocol Mtypes — the daemons speak the same wire
// format as the stubs they compile — and this package fixes the two
// primitive encodings both sides agree on: a string is the §3.2
// recursive list encoding over Unicode characters, and a counter is a
// 64-bit signed integer. Records are declared once (see Declare): the
// protocol Mtype, the server encode and the client decode all derive
// from one ordered field list. The records of strings heading the pair
// requests are written and read directly, as the same bytes (MarshalStrings).
package proto

import (
	"context"
	"encoding/binary"
	"fmt"
	"unicode/utf8"

	"repro/internal/limits"
	"repro/internal/mtype"
	"repro/internal/value"
	"repro/internal/wire"
)

// Transport is the connection a protocol client speaks through: a plain
// orb.Client, or a resilience layer such as resil.Client (pooled,
// deadline-bounded, retrying — safe because every admin-plane op is
// idempotent: broker verdicts and converters are content-addressed by
// fingerprint, loads are keyed by universe name, and a gateway reload
// against an unchanged route file changes nothing).
type Transport interface {
	InvokeContext(ctx context.Context, key string, op uint32, body []byte) ([]byte, error)
	Close() error
}

// Protocol Mtypes. A string is List(Character(unicode)); an int is a
// 64-bit signed Integer.
var (
	// StrT is the protocol string Mtype.
	StrT = mtype.NewList(mtype.NewCharacter(mtype.RepUnicode))
	// IntT is the protocol counter Mtype.
	IntT = mtype.NewIntegerBits(64, true)
)

// str encodes a Go string as a protocol string value.
func str(s string) value.Value {
	runes := []rune(s)
	elems := make([]value.Value, len(runes))
	for i, r := range runes {
		elems[i] = value.Char{R: r}
	}
	return value.FromSlice(elems)
}

// goStr decodes a protocol string value.
func goStr(v value.Value) (string, error) {
	elems, err := value.ToSlice(v)
	if err != nil {
		return "", err
	}
	runes := make([]rune, len(elems))
	for i, e := range elems {
		c, ok := e.(value.Char)
		if !ok {
			return "", fmt.Errorf("proto: string element is %T", e)
		}
		runes[i] = c.R
	}
	return string(runes), nil
}

// goInt decodes a protocol integer value.
func goInt(v value.Value) (int64, error) {
	iv, ok := v.(value.Int)
	if !ok {
		return 0, fmt.Errorf("proto: integer field is %T", v)
	}
	return iv.Int64()
}

// MarshalStrings CDR-encodes a record of strings — Record(StrT, …) — as
// wire.Marshal would their str values, without building them: per string a
// u32 count of runes, then each rune as a u32; nothing is ever padded.
func MarshalStrings(ss ...string) []byte {
	size := 0
	for _, s := range ss {
		size += 4 + 4*utf8.RuneCountInString(s)
	}
	buf := make([]byte, 0, size)
	for _, s := range ss {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(utf8.RuneCountInString(s)))
		for _, r := range s {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(r))
		}
	}
	return buf
}

// UnmarshalStrings decodes a record of n strings that is all of data.
func UnmarshalStrings(data []byte, n int) ([]string, error) {
	out, used, err := UnmarshalStringsPrefix(data, n)
	if err == nil && used != len(data) {
		return nil, fmt.Errorf("wire: %d trailing bytes", len(data)-used)
	}
	return out, err
}

// UnmarshalStringsPrefix decodes a record of n strings from the front of
// data and returns the bytes consumed, for ops that frame a header before a
// payload. It accepts what wire.Unmarshal accepts for Record(StrT, …) and
// gives goStr's strings: any u32 is an element, a non-scalar one U+FFFD.
func UnmarshalStringsPrefix(data []byte, n int) ([]string, int, error) {
	out := make([]string, n)
	var buf []byte
	off := 0
	for i := range out {
		count, next, err := wire.ReadUint(data, off, 4)
		if err != nil {
			return nil, 0, fmt.Errorf("field %d: %w", i, err)
		}
		if count > wire.MaxListLen {
			return nil, 0, limits.Exceededf("wire: list length %d exceeds limit of %d", count, wire.MaxListLen)
		}
		if off = next + 4*int(count); off > len(data) {
			return nil, 0, fmt.Errorf("field %d: wire: %w inside a string of %d", i, wire.ErrShort, count)
		}
		buf = buf[:0]
		for ; next < off; next += 4 {
			buf = utf8.AppendRune(buf, rune(binary.LittleEndian.Uint32(data[next:])))
		}
		out[i] = string(buf)
	}
	return out, off, nil
}
