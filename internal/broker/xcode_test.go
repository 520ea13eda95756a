package broker

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/orb"
	"repro/internal/value"
	"repro/internal/wire"
)

func TestConvertRawFastPath(t *testing.T) {
	b := newBroker(Options{})
	loadC(t, b, "x", "typedef struct { float r; int n; } mix;")
	loadC(t, b, "y", "typedef struct { int count; float ratio; } pair;")

	mtA, err := b.Mtype("x", "mix")
	if err != nil {
		t.Fatal(err)
	}
	mtB, err := b.Mtype("y", "pair")
	if err != nil {
		t.Fatal(err)
	}
	in := value.NewRecord(value.Real{V: 1.5}, value.NewInt(7))
	payload, err := wire.Marshal(mtA, in)
	if err != nil {
		t.Fatal(err)
	}

	got, err := b.ConvertRaw("x", "mix", "y", "pair", payload)
	if err != nil {
		t.Fatal(err)
	}
	// Oracle: the tree path through the same broker.
	outV, err := b.Convert("x", "mix", "y", "pair", in)
	if err != nil {
		t.Fatal(err)
	}
	want, err := wire.Marshal(mtB, outV)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("fast path bytes % x, tree path % x", got, want)
	}

	st := b.Stats()
	if st.FastConverts != 1 || st.TreeConverts != 0 {
		t.Errorf("fast=%d tree=%d, want 1/0", st.FastConverts, st.TreeConverts)
	}
	if st.XcodeCompiles != 1 || st.XcodeUnsupported != 0 || st.XcodeEntries != 1 {
		t.Errorf("xcode compiles=%d unsupported=%d entries=%d, want 1/0/1",
			st.XcodeCompiles, st.XcodeUnsupported, st.XcodeEntries)
	}

	// Warm path: the second request hits the transcoder cache.
	if _, err := b.ConvertRaw("x", "mix", "y", "pair", payload); err != nil {
		t.Fatal(err)
	}
	st = b.Stats()
	if st.XcodeHits < 1 {
		t.Errorf("XcodeHits = %d, want ≥ 1", st.XcodeHits)
	}
	if st.XcodeCompiles != 1 {
		t.Errorf("XcodeCompiles = %d after warm hit, want 1", st.XcodeCompiles)
	}

	// Invalid payloads are rejected, not passed through.
	if _, err := b.ConvertRaw("x", "mix", "y", "pair", payload[:3]); err == nil {
		t.Fatal("truncated payload accepted")
	}
	if _, err := b.ConvertRaw("x", "mix", "y", "pair", append(append([]byte(nil), payload...), 1)); err == nil {
		t.Fatal("payload with trailing bytes accepted")
	}
}

// TestConvertRawSemanticFallback: a pair whose plan needs a semantic
// hook cannot be fused; ConvertRaw must fall back to the tree engine
// with identical bytes and record the cached refusal.
func TestConvertRawSemanticFallback(t *testing.T) {
	s := core.NewSession()
	if err := s.LoadJava("analytic", "class SlopeLine { double slope; double intercept; }"); err != nil {
		t.Fatal(err)
	}
	if err := s.LoadJava("geometric", `
		class Pt { double x; double y; }
		class SegLine { Pt a; Pt b; }
	`); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Annotate("geometric", "annotate SegLine.a nonnull noalias\nannotate SegLine.b nonnull noalias\n"); err != nil {
		t.Fatal(err)
	}
	s.RegisterSemantic("SlopeLine", "SegLine", "slope→seg", func(v value.Value) (value.Value, error) {
		rec, ok := v.(value.Record)
		if !ok || len(rec.Fields) != 2 {
			return nil, fmt.Errorf("want slope/intercept record, got %s", v)
		}
		m := rec.Fields[0].(value.Real).V
		c := rec.Fields[1].(value.Real).V
		pt := func(x float64) value.Value {
			return value.NewRecord(value.Real{V: x}, value.Real{V: m*x + c})
		}
		return value.NewRecord(pt(0), pt(1)), nil
	})
	b := New(s, Options{})

	mtA, err := b.Mtype("analytic", "SlopeLine")
	if err != nil {
		t.Fatal(err)
	}
	mtB, err := b.Mtype("geometric", "SegLine")
	if err != nil {
		t.Fatal(err)
	}
	in := value.NewRecord(value.Real{V: 2}, value.Real{V: -1})
	payload, err := wire.Marshal(mtA, in)
	if err != nil {
		t.Fatal(err)
	}
	got, err := b.ConvertRaw("analytic", "SlopeLine", "geometric", "SegLine", payload)
	if err != nil {
		t.Fatal(err)
	}
	outV, err := b.Convert("analytic", "SlopeLine", "geometric", "SegLine", in)
	if err != nil {
		t.Fatal(err)
	}
	want, err := wire.Marshal(mtB, outV)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("fallback bytes % x, tree path % x", got, want)
	}
	st := b.Stats()
	if st.FastConverts != 0 || st.TreeConverts != 1 {
		t.Errorf("fast=%d tree=%d, want 0/1", st.FastConverts, st.TreeConverts)
	}
	if st.XcodeUnsupported != 1 || st.XcodeEntries != 1 {
		t.Errorf("unsupported=%d entries=%d, want 1/1 (refusal cached)", st.XcodeUnsupported, st.XcodeEntries)
	}

	// The refusal is cached: a second conversion attempts no new compile.
	if _, err := b.ConvertRaw("analytic", "SlopeLine", "geometric", "SegLine", payload); err != nil {
		t.Fatal(err)
	}
	if st = b.Stats(); st.XcodeCompiles != 1 {
		t.Errorf("XcodeCompiles = %d after cached refusal, want 1", st.XcodeCompiles)
	}
}

func TestConvertBatchProtocol(t *testing.T) {
	b, c := startDaemon(t)
	if _, _, err := c.Load("x", "c", "ilp32", "typedef struct { float r; int n; } mix;", ""); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Load("y", "c", "ilp32", "typedef struct { int count; float ratio; } pair;", ""); err != nil {
		t.Fatal(err)
	}
	mtA, err := b.Mtype("x", "mix")
	if err != nil {
		t.Fatal(err)
	}
	mtB, err := b.Mtype("y", "pair")
	if err != nil {
		t.Fatal(err)
	}

	const n = 17
	vs := make([]value.Value, n)
	for i := range vs {
		vs[i] = value.NewRecord(value.Real{V: float64(i) + 0.5}, value.NewInt(int64(i)))
	}
	outs, err := c.ConvertBatchContext(context.Background(), "x", "mix", "y", "pair", mtA, mtB, vs)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != n {
		t.Fatalf("batch returned %d items, want %d", len(outs), n)
	}
	for i, out := range outs {
		rec := out.(value.Record)
		if cnt, _ := rec.Fields[0].(value.Int).Int64(); cnt != int64(i) {
			t.Fatalf("item %d: count = %d", i, cnt)
		}
		if r := rec.Fields[1].(value.Real).V; r != float64(i)+0.5 {
			t.Fatalf("item %d: ratio = %v", i, r)
		}
	}
	st := b.Stats()
	if st.FastConverts != n {
		t.Errorf("FastConverts = %d, want %d", st.FastConverts, n)
	}

	// Empty batch round-trips.
	if outs, err := c.ConvertBatchRawContext(context.Background(), "x", "mix", "y", "pair", nil); err != nil || len(outs) != 0 {
		t.Fatalf("empty batch: %d items, err %v", len(outs), err)
	}

	// A bad item fails the whole batch with its index in the error.
	good, err := wire.Marshal(mtA, vs[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.ConvertBatchRawContext(context.Background(), "x", "mix", "y", "pair", [][]byte{good, good[:2]}); err == nil ||
		!strings.Contains(err.Error(), "item 1") {
		t.Fatalf("bad batch item error = %v", err)
	}

	// Health exposes the transcoder cache occupancy.
	h, err := c.HealthContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.TranscoderEntries != 1 {
		t.Errorf("TranscoderEntries = %d, want 1", h.TranscoderEntries)
	}
	// And stats round-trip the new counters over the wire.
	local := b.Stats()
	wst, err := c.StatsContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if wst.FastConverts != local.FastConverts || wst.XcodeCompiles != 1 {
		t.Errorf("wire stats fast=%d xcompiles=%d, want %d/1",
			wst.FastConverts, wst.XcodeCompiles, local.FastConverts)
	}
}

func TestBatchFraming(t *testing.T) {
	items := [][]byte{{1, 2, 3}, {}, {0xff}}
	enc := appendBatch(nil, items)
	dec, err := parseBatch(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != len(items) {
		t.Fatalf("decoded %d items", len(dec))
	}
	for i := range items {
		if !bytes.Equal(dec[i], items[i]) {
			t.Fatalf("item %d: % x != % x", i, dec[i], items[i])
		}
	}
	for _, bad := range [][]byte{
		{},                                 // no count
		{1, 0, 0, 0},                       // count 1, no length
		{1, 0, 0, 0, 9, 0, 0, 0, 1},        // item overruns body
		append(appendBatch(nil, items), 0), // trailing byte
	} {
		if _, err := parseBatch(bad); err == nil {
			t.Fatalf("parseBatch(% x) succeeded", bad)
		}
	}
}

func BenchmarkConvertBatch(b *testing.B) {
	bk := newBroker(Options{})
	if _, _, err := bk.Load("x", "c", "ilp32", "typedef struct { float r; int n; } mix;", ""); err != nil {
		b.Fatal(err)
	}
	if _, _, err := bk.Load("y", "c", "ilp32", "typedef struct { int count; float ratio; } pair;", ""); err != nil {
		b.Fatal(err)
	}
	srv, err := orb.NewServer("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	Serve(srv, bk)
	c, err := DialClient(srv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()

	mtA, err := bk.Mtype("x", "mix")
	if err != nil {
		b.Fatal(err)
	}
	const batch = 64
	payloads := make([][]byte, batch)
	for i := range payloads {
		p, err := wire.Marshal(mtA, value.NewRecord(value.Real{V: float64(i)}, value.NewInt(int64(i))))
		if err != nil {
			b.Fatal(err)
		}
		payloads[i] = p
	}
	// Warm the caches.
	if _, err := c.ConvertBatchRawContext(context.Background(), "x", "mix", "y", "pair", payloads); err != nil {
		b.Fatal(err)
	}

	b.Run("batch64", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := c.ConvertBatchRawContext(context.Background(), "x", "mix", "y", "pair", payloads); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("single64", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, p := range payloads {
				if _, err := c.ConvertRawContext(context.Background(), "x", "mix", "y", "pair", p); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
