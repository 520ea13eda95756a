package main

import (
	"embed"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"strings"
)

// testdata holds the hand-written expected bytes of the fixed fixtures.
//
//go:embed testdata/*.hex
var testdata embed.FS

// testdataHex decodes one hand-written fixture: hex digits, white space
// ignored, # to end of line a comment.
func testdataHex(name string) ([]byte, error) {
	raw, err := testdata.ReadFile("testdata/" + name)
	if err != nil {
		return nil, err
	}
	var digits strings.Builder
	for _, line := range strings.Split(string(raw), "\n") {
		line, _, _ = strings.Cut(line, "#")
		digits.WriteString(strings.Join(strings.Fields(line), ""))
	}
	out, err := hex.DecodeString(digits.String())
	if err != nil {
		return nil, fmt.Errorf("testdata/%s: %w", name, err)
	}
	return out, nil
}

// The append helpers write CDR primitives the way the wire does: little
// endian, aligned to their size from the start of b, padding zeroed. The
// benchmark builds bulk payloads with them as bytes, never as value trees.

func appendPad(b []byte, align int) []byte {
	for len(b)%align != 0 {
		b = append(b, 0)
	}
	return b
}

func appendI32(b []byte, v int32) []byte {
	return binary.LittleEndian.AppendUint32(appendPad(b, 4), uint32(v))
}

func appendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(appendPad(b, 8), math.Float64bits(v))
}

func appendF32s(b []byte, vs ...float32) []byte {
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint32(appendPad(b, 4), math.Float32bits(v))
	}
	return b
}
