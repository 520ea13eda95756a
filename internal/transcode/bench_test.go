package transcode

import (
	"testing"

	"repro/internal/compare"
	"repro/internal/convert"
	"repro/internal/mtype"
	"repro/internal/plan"
	"repro/internal/value"
	"repro/internal/wire"
)

func benchFixture(b *testing.B, a, bt *mtype.Type, v value.Value) (*Transcoder, convert.Converter, []byte) {
	b.Helper()
	c := compare.NewComparer(compare.DefaultRules())
	m, ok := c.Equivalent(a, bt)
	if !ok {
		b.Fatalf("no match:\n%s", c.Explain(a, bt, compare.ModeEqual))
	}
	p, err := plan.Build(m)
	if err != nil {
		b.Fatal(err)
	}
	xc, err := Compile(p, a, bt)
	if err != nil {
		b.Fatal(err)
	}
	conv, err := convert.Compile(p)
	if err != nil {
		b.Fatal(err)
	}
	src, err := wire.Marshal(a, v)
	if err != nil {
		b.Fatal(err)
	}
	return xc, conv, src
}

// BenchmarkTranscodeVsTree measures the record-permutation workload the
// PR optimizes: a mixed fixed/variable record whose leaves are shuffled
// between the endpoint declarations. The tree path decodes into a
// value.Value, permutes, and re-encodes; the wire path shuffles spans of
// CDR bytes directly.
func BenchmarkTranscodeVsTree(b *testing.B) {
	a := mtype.RecordOf(i32(), i64t(), f64t(), strT(), i16(), f32(), i64t())
	bt := mtype.RecordOf(i16(), f64t(), strT(), i32(), i64t(), i64t(), f32())
	v := value.NewRecord(
		value.NewInt(7), value.NewInt(1<<40), value.Real{V: 3.25},
		str("a moderately sized payload string"), value.NewInt(-9),
		value.Real{V: 1.5}, value.NewInt(-1<<33))
	xc, conv, src := benchFixture(b, a, bt, v)

	b.Run("transcode", func(b *testing.B) {
		var dst []byte
		b.ReportAllocs()
		b.SetBytes(int64(len(src)))
		for i := 0; i < b.N; i++ {
			var err error
			dst, err = xc.TranscodeAppend(dst[:0], src)
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("tree", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(src)))
		for i := 0; i < b.N; i++ {
			if _, err := convert.TranscodeTree(nil, a, bt, conv, src); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTranscodeList measures the bulk sequence path: a long list of
// fixed records collapses to one length-scaled copy on the wire path.
func BenchmarkTranscodeList(b *testing.B) {
	a := mtype.NewList(mtype.RecordOf(i32(), f64t()))
	bt := mtype.NewList(mtype.RecordOf(i32(), f64t()))
	var vs []value.Value
	for i := 0; i < 512; i++ {
		vs = append(vs, value.NewRecord(value.NewInt(int64(i)), value.Real{V: float64(i)}))
	}
	xc, conv, src := benchFixture(b, a, bt, value.FromSlice(vs))

	b.Run("transcode", func(b *testing.B) {
		var dst []byte
		b.ReportAllocs()
		b.SetBytes(int64(len(src)))
		for i := 0; i < b.N; i++ {
			var err error
			dst, err = xc.TranscodeAppend(dst[:0], src)
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("tree", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(src)))
		for i := 0; i < b.N; i++ {
			if _, err := convert.TranscodeTree(nil, a, bt, conv, src); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// strideWindow compiles the relay_bulk element pair as a sequence and
// lays n records out as SeqStep sees them after the count prefix: the
// window's first record at residue 4.
func strideWindow(tb testing.TB, n int) (*Transcoder, []byte) {
	tb.Helper()
	ea, eb := bulkRecPair()
	la, lb := mtype.NewList(ea), mtype.NewList(eb)
	pl, err := matchPair(la, lb, false)
	if err != nil {
		tb.Fatal(err)
	}
	xc, err := Compile(pl, la, lb)
	if err != nil {
		tb.Fatal(err)
	}
	vs := make([]value.Value, n)
	r := lcg(1)
	for i := range vs {
		vs[i] = strideValue(ea, &r)
	}
	src, err := wire.Marshal(la, value.FromSlice(vs))
	if err != nil {
		tb.Fatal(err)
	}
	return xc, src
}

// BenchmarkSeqStepStride is the streaming step on fixed-layout records:
// one 32 KiB window of the relay_bulk element pair per iteration, into
// an output buffer that is already large enough.
func BenchmarkSeqStepStride(b *testing.B) {
	const records = 512
	xc, src := strideWindow(b, records)
	dst := make([]byte, 0, 2*len(src))
	b.ReportAllocs()
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, _, done, err := xc.SeqStep(dst[:4], src, 4, records)
		if err != nil || done != records {
			b.Fatalf("SeqStep = %d records, %v", done, err)
		}
		dst = out[:0]
	}
}
