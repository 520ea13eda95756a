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
// from one ordered field list.
package proto

import (
	"context"
	"fmt"

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

// Record builds a protocol record Mtype from field Mtypes.
func Record(types ...*mtype.Type) *mtype.Type { return mtype.RecordOf(types...) }

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

// MarshalStrings CDR-encodes a record of strings against ty.
func MarshalStrings(ty *mtype.Type, ss ...string) ([]byte, error) {
	fields := make([]value.Value, len(ss))
	for i, s := range ss {
		fields[i] = str(s)
	}
	return wire.Marshal(ty, value.NewRecord(fields...))
}

// UnmarshalStrings decodes a record of n strings.
func UnmarshalStrings(ty *mtype.Type, data []byte, n int) ([]string, error) {
	v, err := wire.Unmarshal(ty, data)
	if err != nil {
		return nil, err
	}
	return RecordStrings(v, n)
}

// RecordStrings extracts n string fields from a decoded record value.
func RecordStrings(v value.Value, n int) ([]string, error) {
	rec, ok := v.(value.Record)
	if !ok || len(rec.Fields) != n {
		return nil, fmt.Errorf("proto: want record of %d strings, got %v", n, v)
	}
	out := make([]string, n)
	for i, f := range rec.Fields {
		s, err := goStr(f)
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}
