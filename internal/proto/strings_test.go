package proto

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"repro/internal/limits"
	"repro/internal/mtype"
	"repro/internal/value"
	"repro/internal/wire"
)

// treeStrings is the codec MarshalStrings and UnmarshalStringsPrefix
// replaced: a cons list of value.Char per string through package wire.
// The direct codec is held to it byte for byte and error for error.
var pairT = mtype.RecordOf(StrT, StrT)

func treeMarshal(a, b string) ([]byte, error) {
	return wire.Marshal(pairT, value.NewRecord(str(a), str(b)))
}

func treeUnmarshalPrefix(data []byte) ([]string, int, error) {
	v, n, err := wire.UnmarshalPrefix(pairT, data)
	if err != nil {
		return nil, 0, err
	}
	out := make([]string, 2)
	for i, f := range v.(value.Record).Fields {
		if out[i], err = goStr(f); err != nil {
			return nil, 0, err
		}
	}
	return out, n, nil
}

func u32s(words ...uint32) []byte {
	var out []byte
	for _, w := range words {
		out = binary.LittleEndian.AppendUint32(out, w)
	}
	return out
}

// FuzzStrings: the direct string-record codec against the value-tree one.
// Encoding any two strings gives the same bytes; decoding any bytes gives
// the same strings and the same count of bytes consumed, or fails where
// the tree codec fails, with a budget error where it gives one.
func FuzzStrings(f *testing.F) {
	f.Add([]byte(nil), "", "")
	f.Add(u32s(1, 'a', 1, 'b'), "universe", "decl")
	f.Add(u32s(2, 'a', 'b', 0), "héllo 🦜", "\xff\xfe broken utf-8 \xc3")
	f.Add(u32s(1, 'a', 1, 'b', 7), "trailing", "bytes")        // a header before a payload
	f.Add(u32s(1, 'a', 1), "short", "one element missing")     // truncated inside a string
	f.Add(u32s(1, 'a', 1, 'b')[:15], "short", "inside a rune") // truncated inside an element
	f.Add(u32s(2, 'a')[:6], "short", "inside the first")       // … and a count that lies
	f.Add(u32s(3)[:2], "short", "inside a count")              // truncated inside a count
	f.Add(u32s(2, 0, 0, 0), "bad discriminant", "were a list sent as cons cells")
	f.Add(u32s(3, 0xD800, 0x110000, 0xFFFFFFFF, 1, 0x80000000), "non-scalar", "runes")
	f.Add(u32s(wire.MaxListLen+1), "count", "over the list budget")
	f.Add(u32s(0xFFFFFFFF, 'a'), "count", "far over it")
	f.Fuzz(func(t *testing.T, data []byte, a, b string) {
		want, err := treeMarshal(a, b)
		if err != nil {
			t.Fatalf("tree codec refuses %q, %q: %v", a, b, err)
		}
		if got := MarshalStrings(a, b); !bytes.Equal(got, want) {
			t.Fatalf("MarshalStrings(%q, %q) = %x, tree codec gives %x", a, b, got, want)
		}
		back, err := UnmarshalStrings(want, 2)
		if treeBack, _, _ := treeUnmarshalPrefix(want); err != nil || back[0] != treeBack[0] || back[1] != treeBack[1] {
			t.Fatalf("UnmarshalStrings of its own bytes = %q, %v; tree codec reads %q", back, err, treeBack)
		}

		got, n, err := UnmarshalStringsPrefix(data, 2)
		wantStrs, wantN, wantErr := treeUnmarshalPrefix(data)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("%x: direct decode error %v, tree decode error %v", data, err, wantErr)
		}
		if err != nil {
			if errors.Is(err, limits.ErrBudget) != errors.Is(wantErr, limits.ErrBudget) || errors.Is(err, wire.ErrShort) != errors.Is(wantErr, wire.ErrShort) {
				t.Fatalf("%x: direct decode fails with %v, tree decode with %v", data, err, wantErr)
			}
			return
		}
		if n != wantN || got[0] != wantStrs[0] || got[1] != wantStrs[1] {
			t.Fatalf("%x: direct decode %q after %d bytes, tree decode %q after %d", data, got, n, wantStrs, wantN)
		}
		_, err = UnmarshalStrings(data, 2)
		if _, wantErr := wire.Unmarshal(pairT, data); (err != nil) != (wantErr != nil) {
			t.Fatalf("%x: whole-input decode error %v, tree decode error %v", data, err, wantErr)
		}
	})
}
