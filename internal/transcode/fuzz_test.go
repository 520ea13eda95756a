package transcode

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/convert"
	"repro/internal/mtype"
	"repro/internal/value"
	"repro/internal/wire"
)

type fuzzPair struct {
	name string
	a, b *mtype.Type
	sub  bool
	seed value.Value
}

func fuzzPairs() []fuzzPair {
	bulkA, bulkB := bulkRecPair()
	rngA, rngB := rangedRecPair()
	f32A, f32B := float32RecPair()
	seed := lcg(3)
	return []fuzzPair{
		// Fixed-layout element pairs: the stride kernel's sequences.
		{
			name: "stride-relay-bulk",
			a:    mtype.NewList(bulkA),
			b:    mtype.NewList(bulkB),
			seed: list(strideValue(bulkA, &seed), strideValue(bulkA, &seed)),
		},
		{
			name: "stride-ranged",
			a:    mtype.NewList(rngA),
			b:    mtype.NewList(rngB),
			sub:  true,
			seed: list(strideValue(rngA, &seed), strideValue(rngA, &seed), strideValue(rngA, &seed)),
		},
		{
			name: "stride-binary32",
			a:    mtype.NewList(f32A),
			b:    mtype.NewList(f32B),
			sub:  true,
			seed: list(strideValue(f32A, &seed), strideValue(f32A, &seed)),
		},
		{
			name: "permuted-record",
			a:    mtype.RecordOf(i32(), i64t(), f64t(), strT(), i16()),
			b:    mtype.RecordOf(i16(), f64t(), strT(), i32(), i64t()),
			seed: value.NewRecord(value.NewInt(7), value.NewInt(1<<40),
				value.Real{V: 3.25}, str("seed"), value.NewInt(-9)),
		},
		{
			name: "widening-subtype",
			a:    mtype.RecordOf(i16(), f32(), latin1()),
			b:    mtype.RecordOf(i64t(), f64t(), unicode()),
			sub:  true,
			seed: value.NewRecord(value.NewInt(-3), value.Real{V: 0.5}, value.Char{R: 'x'}),
		},
		{
			name: "padded-identity",
			a:    mtype.RecordOf(i8(), i64t(), f32(), f64t()),
			b:    mtype.RecordOf(i8(), i64t(), f32(), f64t()),
			seed: value.NewRecord(value.NewInt(1), value.NewInt(2),
				value.Real{V: 3}, value.Real{V: 4}),
		},
		{
			name: "list-of-records",
			a:    mtype.NewList(mtype.RecordOf(i32(), f32())),
			b:    mtype.NewList(mtype.RecordOf(f32(), i32())),
			seed: list(value.NewRecord(value.NewInt(1), value.Real{V: 1.5})),
		},
		{
			name: "string",
			a:    strT(),
			b:    strT(),
			seed: str("fuzz me"),
		},
		{
			name: "choice-permutation",
			a:    mtype.ChoiceOf(i32(), f64t(), strT()),
			b:    mtype.ChoiceOf(strT(), i32(), f64t()),
			seed: value.Choice{Alt: 1, V: value.Real{V: 2.5}},
		},
		{
			name: "optional-record",
			a:    mtype.NewOptional(mtype.RecordOf(i32(), i32())),
			b:    mtype.NewOptional(mtype.RecordOf(i32(), i32())),
			seed: value.Some(value.NewRecord(value.NewInt(1), value.NewInt(2))),
		},
		{
			name: "nested-flatten",
			a:    mtype.RecordOf(mtype.RecordOf(i32(), i8()), f64t()),
			b:    mtype.RecordOf(i8(), mtype.RecordOf(f64t(), i32())),
			seed: value.NewRecord(value.NewRecord(value.NewInt(9), value.NewInt(-1)),
				value.Real{V: 7.5}),
		},
		{
			name: "injection",
			a:    i32(),
			b:    mtype.ChoiceOf(f64t(), i32()),
			sub:  true,
			seed: value.NewInt(77),
		},
		// Discriminant coverage: alternatives are aggregates, so a
		// corrupted discriminant byte selects a different decode shape
		// entirely — both engines must agree on accept/reject and bytes.
		{
			name: "choice-of-aggregates",
			a:    mtype.ChoiceOf(mtype.RecordOf(i32(), f32()), strT(), mtype.NewList(i16())),
			b:    mtype.ChoiceOf(mtype.NewList(i16()), mtype.RecordOf(f32(), i32()), strT()),
			seed: value.Choice{Alt: 2, V: list(value.NewInt(5), value.NewInt(-12))},
		},
		{
			name: "choice-in-record",
			a:    mtype.RecordOf(mtype.ChoiceOf(i32(), strT()), i8()),
			b:    mtype.RecordOf(i8(), mtype.ChoiceOf(strT(), i32())),
			seed: value.NewRecord(value.Choice{Alt: 1, V: str("alt")}, value.NewInt(3)),
		},
		// Nested sequences: length-prefixed lists inside lists, where a
		// fuzzed inner count must not let the transcoder read past the
		// payload the tree decoder rejects.
		{
			name: "nested-sequences",
			a:    mtype.NewList(mtype.NewList(mtype.RecordOf(i32(), f64t()))),
			b:    mtype.NewList(mtype.NewList(mtype.RecordOf(f64t(), i32()))),
			seed: list(
				list(value.NewRecord(value.NewInt(1), value.Real{V: 0.5})),
				list(value.NewRecord(value.NewInt(2), value.Real{V: 1.5}),
					value.NewRecord(value.NewInt(3), value.Real{V: 2.5})),
			),
		},
		{
			name: "sequence-of-choices",
			a:    mtype.NewList(mtype.ChoiceOf(i32(), f64t())),
			b:    mtype.NewList(mtype.ChoiceOf(f64t(), i32())),
			seed: list(
				value.Choice{Alt: 0, V: value.NewInt(4)},
				value.Choice{Alt: 1, V: value.Real{V: -2.5}},
			),
		},
	}
}

// fuzzFixture is one pair on both rungs of the ladder — the fused program
// and the tree rung over the closure-compiled converter — beside ref, the
// plan interpreter neither of them is built from.
type fuzzFixture struct {
	fuzzPair
	xc, tree *Transcoder
	ref      convert.Converter
}

func buildFuzzFixtures() ([]fuzzFixture, error) {
	var out []fuzzFixture
	for _, p := range fuzzPairs() {
		pl, err := matchPair(p.a, p.b, p.sub)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
		xc, err := Compile(pl, p.a, p.b)
		if err != nil {
			return nil, fmt.Errorf("%s: compile: %w", p.name, err)
		}
		conv, err := convert.Compile(pl)
		if err != nil {
			return nil, fmt.Errorf("%s: tree compile: %w", p.name, err)
		}
		out = append(out, fuzzFixture{fuzzPair: p, xc: xc, tree: Tree(p.a, p.b, conv, "fuzz"), ref: convert.NewInterpreter(pl)})
	}
	return out, nil
}

// FuzzTranscodeOracle fuzzes raw wire bytes against a fixed table of
// compiled pairs and enforces the ladder's contract differentially:
// whenever decode→convert→encode through the plan interpreter succeeds,
// the fused program and the tree rung must each produce the identical
// bytes; whenever the interpreter's path rejects the input, so must both.
func FuzzTranscodeOracle(f *testing.F) {
	fixtures, err := buildFuzzFixtures()
	if err != nil {
		f.Fatal(err)
	}
	for i, fx := range fixtures {
		seed, err := wire.Marshal(fx.a, fx.seed)
		if err != nil {
			f.Fatalf("%s: seed marshal: %v", fx.name, err)
		}
		f.Add(uint8(i), seed)
		if len(seed) > 0 {
			f.Add(uint8(i), seed[:len(seed)/2])
		}
		f.Add(uint8(i), append(append([]byte(nil), seed...), 0xff))
	}
	f.Fuzz(func(t *testing.T, idx uint8, data []byte) {
		fx := &fixtures[int(idx)%len(fixtures)]
		refOut, refErr := convert.TranscodeTree(nil, fx.a, fx.b, fx.ref, data)
		for _, rung := range []struct {
			name string
			xc   *Transcoder
		}{{"fused", fx.xc}, {"tree rung", fx.tree}} {
			out, err := rung.xc.Transcode(data)
			if refErr != nil {
				if err == nil {
					t.Fatalf("%s: interpreter errored (%v) but %s accepted % x → % x",
						fx.name, refErr, rung.name, data, out)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s: %s error %v on interpreter-accepted input % x", fx.name, rung.name, err, data)
			}
			if !bytes.Equal(refOut, out) {
				t.Fatalf("%s: %s mismatch\nsrc: % x\nref: % x\ngot: % x", fx.name, rung.name, data, refOut, out)
			}
		}
	})
}
