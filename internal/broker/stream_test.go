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

// The streaming fixture: IDL sequences of permuted records.
const (
	seqASrc = "struct Rec { long n; double x; };\ntypedef sequence<Rec> Batch;"
	seqBSrc = "struct Rec { double x; long n; };\ntypedef sequence<Rec> Batch;"
)

func loadIDL(t *testing.T, b *Broker, universe, src string) {
	t.Helper()
	if _, existed, err := b.Load(universe, "idl", "", src, ""); err != nil || existed {
		t.Fatalf("load %s: existed=%v err=%v", universe, existed, err)
	}
}

// TestConvertStreamFastTier: a streamed convert of a sequence pair runs
// chunk-at-a-time through the fused engine, and the bytes match the
// buffered ConvertRaw oracle even when the payload spans many credit
// windows in both directions.
func TestConvertStreamFastTier(t *testing.T) {
	b, c := startDaemon(t)
	loadIDL(t, b, "a", seqASrc)
	loadIDL(t, b, "bb", seqBSrc)

	mtA, err := b.Mtype("a", "Batch")
	if err != nil {
		t.Fatal(err)
	}
	// ~1.6 MiB: bigger than the 1 MiB stream window, so both legs must
	// move concurrently for the call to finish at all.
	recs := make([]value.Value, 100_000)
	for i := range recs {
		recs[i] = value.NewRecord(value.NewInt(int64(i)), value.Real{V: float64(i) + 0.25})
	}
	payload, err := wire.Marshal(mtA, value.FromSlice(recs))
	if err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	n, err := c.ConvertStreamContext(context.Background(), "a", "Batch", "bb", "Batch", bytes.NewReader(payload), &out)
	if err != nil {
		t.Fatal(err)
	}
	want, err := b.ConvertRaw("a", "Batch", "bb", "Batch", payload)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(want)) || !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("streamed convert: %d bytes, oracle %d bytes", n, len(want))
	}
	if st := b.Stats(); st.FastConverts < 1 {
		t.Errorf("FastConverts = %d, want ≥ 1 for a streamed fused convert", st.FastConverts)
	}
}

// TestConvertStreamTreeFallback: a pair needing a semantic hook has no
// bytes-to-bytes program; the streamed convert must buffer under the
// cap and answer through the tree engine with oracle-identical bytes.
func TestConvertStreamTreeFallback(t *testing.T) {
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
		cc := rec.Fields[1].(value.Real).V
		pt := func(x float64) value.Value {
			return value.NewRecord(value.Real{V: x}, value.Real{V: m*x + cc})
		}
		return value.NewRecord(pt(0), pt(1)), nil
	})
	b := New(s, Options{})
	srv, err := orb.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	Serve(srv, b)
	c, err := DialClient(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })

	mtA, err := b.Mtype("analytic", "SlopeLine")
	if err != nil {
		t.Fatal(err)
	}
	payload, err := wire.Marshal(mtA, value.NewRecord(value.Real{V: 2}, value.Real{V: -1}))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if _, err := c.ConvertStreamContext(context.Background(), "analytic", "SlopeLine", "geometric", "SegLine", bytes.NewReader(payload), &out); err != nil {
		t.Fatal(err)
	}
	want, err := b.ConvertRaw("analytic", "SlopeLine", "geometric", "SegLine", payload)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatal("tree-tier streamed bytes diverged from ConvertRaw")
	}
	if st := b.Stats(); st.TreeConverts < 1 {
		t.Errorf("TreeConverts = %d, want ≥ 1", st.TreeConverts)
	}
}

// TestConvertStreamOverCapTyped: a non-streamable fused pair buffers
// inside the engine under its cap; past it the stream must fail with a
// typed too-large error, not exhaust memory.
func TestConvertStreamOverCapTyped(t *testing.T) {
	b, c := startDaemon(t)
	loadC(t, b, "x", "typedef struct { float r; int n; } mix;")
	loadC(t, b, "y", "typedef struct { int count; float ratio; } pair;")

	// 17 MiB of junk: the record-rooted pair buffers in the engine,
	// whose fallback cap is 16 MiB.
	junk := bytes.Repeat([]byte{0xee}, 17<<20)
	var out bytes.Buffer
	_, err := c.ConvertStreamContext(context.Background(), "x", "mix", "y", "pair", bytes.NewReader(junk), &out)
	if err == nil {
		t.Fatal("17 MiB through a non-streamable pair succeeded")
	}
	if !strings.Contains(err.Error(), "cap") {
		t.Fatalf("err = %v, want the buffered-fallback cap named", err)
	}
}

// TestConvertStreamWrongDirectionSwapHint: streamed converts refuse
// B<:A pairs with the same swap hint as buffered ones, at the header —
// before any payload is consumed.
func TestConvertStreamWrongDirectionSwapHint(t *testing.T) {
	b, c := startDaemon(t)
	loadC(t, b, "x", "typedef short narrow;")
	loadC(t, b, "y", "typedef int wide;")

	var out bytes.Buffer
	_, err := c.ConvertStreamContext(context.Background(), "y", "wide", "x", "narrow", bytes.NewReader([]byte{1, 0, 0, 0}), &out)
	if err == nil || !strings.Contains(err.Error(), "swap") {
		t.Fatalf("wide→narrow stream error = %v, want swap hint", err)
	}
}
