package stream

import (
	"bytes"
	"testing"

	"repro/internal/mtype"
	"repro/internal/transcode"
	"repro/internal/value"
	"repro/internal/wire"
)

// FuzzStreamOracle drives fuzzer-chosen bytes through the streaming
// engine in fuzzer-chosen splits and holds it to the one-shot
// transcoder's behavior: byte-identical output when the one-shot path
// succeeds, an error whenever it errors. This is the resume-point state
// machine's contract — chunking must be invisible.
func FuzzStreamOracle(f *testing.F) {
	fixtures := []*struct {
		name string
		a    *mtype.Type
		b    *mtype.Type
	}{
		{"permuted-records", mtype.NewList(mtype.RecordOf(i32(), f64t())), mtype.NewList(mtype.RecordOf(f64t(), i32()))},
		{"scalar-bulk", mtype.NewList(i32()), mtype.NewList(i32())},
		{"variable-strings", mtype.NewList(mtype.RecordOf(strT(), i16())), mtype.NewList(mtype.RecordOf(i16(), strT()))},
		// Fixed-layout elements, the stride kernel's cases: relay_bulk's
		// eight-field permutation, a range-checked pair, a binary32 pair.
		{"stride-relay-bulk",
			mtype.NewList(mtype.RecordOf(i32(), f64t(), i32(), f64t(), i32(), f64t(), i32(), f64t())),
			mtype.NewList(mtype.RecordOf(f64t(), i32(), f64t(), i32(), f64t(), i32(), f64t(), i32()))},
		{"stride-ranged",
			mtype.NewList(mtype.RecordOf(i32(), ranged(0, 5), f64t(), ranged(-100, 100))),
			mtype.NewList(mtype.RecordOf(f64t(), ranged(-1000, 1000), ranged(0, 250), i32()))},
		{"stride-binary32",
			mtype.NewList(mtype.RecordOf(f32(), i16(), f32())),
			mtype.NewList(mtype.RecordOf(f64t(), f32(), i16()))},
	}
	xcs := make([]*transcode.Transcoder, len(fixtures))
	for i, fx := range fixtures {
		xcs[i] = buildXC(f, fx.a, fx.b)
	}

	// Seed with valid payloads, a truncation, and trailing garbage.
	recs := []value.Value{
		value.NewRecord(value.NewInt(1), value.Real{V: 0.5}),
		value.NewRecord(value.NewInt(-2), value.Real{V: 3.75}),
	}
	valid, err := wire.Marshal(fixtures[0].a, value.FromSlice(recs))
	if err != nil {
		f.Fatal(err)
	}
	strs, err := wire.Marshal(fixtures[2].a, value.FromSlice([]value.Value{
		value.NewRecord(str("seed"), value.NewInt(7)),
	}))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(uint8(0), uint64(1), valid)
	f.Add(uint8(0), uint64(99), valid[:len(valid)-3])
	f.Add(uint8(0), uint64(7), append(append([]byte(nil), valid...), 0xcc))
	f.Add(uint8(1), uint64(3), []byte{2, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0})
	f.Add(uint8(2), uint64(13), strs)
	bulk := make([]byte, 4+60+64) // two relay_bulk records behind their count
	bulk[0] = 2
	for i := 4; i < len(bulk); i++ {
		bulk[i] = byte(i * 7)
	}
	f.Add(uint8(3), uint64(5), bulk)
	f.Add(uint8(4), uint64(11), []byte{2, 0, 0, 0, 9, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x40, 0xf6, 0, 0, 0,
		1, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x40, 0x10})
	f.Add(uint8(5), uint64(17), []byte{1, 0, 0, 0, 1, 0, 0xa0, 0x7f, 9, 0, 0, 0, 0, 0, 0xc0, 0x3f})

	f.Fuzz(func(t *testing.T, which uint8, seed uint64, src []byte) {
		xc := xcs[int(which)%len(xcs)]
		want, wantErr := xc.Transcode(src)

		eng := New(xc, Options{})
		defer eng.Release()
		var got []byte
		var gotErr error
		s := seed | 1
		for off := 0; off < len(src) && gotErr == nil; {
			s = s*6364136223846793005 + 1442695040888963407
			n := 1 + int(s>>33)%127
			if off+n > len(src) {
				n = len(src) - off
			}
			gotErr = eng.Push(src[off : off+n])
			if gotErr == nil {
				got = append(got, eng.Take()...)
			}
			off += n
		}
		if gotErr == nil {
			var tail []byte
			tail, gotErr = eng.Finish()
			got = append(got, tail...)
		}

		if wantErr != nil {
			if gotErr == nil {
				t.Fatalf("one-shot errored (%v) but stream succeeded on % x", wantErr, src)
			}
			return
		}
		if gotErr != nil {
			t.Fatalf("stream error %v on % x (one-shot succeeded)", gotErr, src)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("output mismatch\nsrc:    % x\noneshot: % x\nstream:  % x", src, want, got)
		}
	})
}
