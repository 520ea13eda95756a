package broker

import (
	"testing"

	"repro/internal/synth"
	"repro/internal/testutil"
)

// TestCompareWarmAllocs pins the allocation ceiling of a warm compare:
// with the root lowering memoized, the fingerprints memoized by graph
// pointer, and the verdict served from cache, a repeat compare is a few
// map probes. A regression here usually means a memo started missing
// (fresh graphs defeat the pointer-keyed fingerprint memo) and the full
// lower-and-refine pipeline is silently back on the hot path.
func TestCompareWarmAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race-detector instrumentation inflates allocation counts")
	}
	b := newBroker(Options{})
	loadC(t, b, "x", "typedef struct { float r; int n; } mix;")
	loadC(t, b, "y", "typedef struct { int count; float ratio; } pair;")
	if _, err := b.Compare("x", "mix", "y", "pair"); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(200, func() {
		v, err := b.Compare("x", "mix", "y", "pair")
		if err != nil {
			t.Fatal(err)
		}
		if !v.Cached {
			t.Fatal("warm compare missed the verdict cache")
		}
	})
	const ceiling = 5
	if avg > ceiling {
		t.Fatalf("warm compare allocates %.1f/op, ceiling %d", avg, ceiling)
	}
}

// suiteBroker returns a broker whose session holds the C, Java and IDL
// sides of a synthesized suite, every declaration lowered and
// fingerprinted — a resident session, whose misses are cache fills and
// nothing else — and whose three caches hold one entry each, so that
// asking for two pairs in turn misses every time.
func suiteBroker(tb testing.TB, classes int) (*Broker, *synth.Suite) {
	tb.Helper()
	suite := synth.Generate(synth.VisualAgeScaled(classes))
	b := newBroker(Options{VerdictCacheSize: 1, ConverterCacheSize: 1, TranscoderCacheSize: 1})
	for _, l := range []struct{ universe, lang, src, script string }{
		{"c", "c", suite.CSource, suite.CScript},
		{"java", "java", suite.JavaSource, suite.JavaScript},
		{"idl", "idl", suite.IDLSource, ""},
	} {
		if _, _, err := b.Load(l.universe, l.lang, "ilp32", l.src, l.script); err != nil {
			tb.Fatal(err)
		}
	}
	for _, name := range append(append([]string(nil), suite.DataClassNames...), suite.ServiceClassNames...) {
		if _, _, _, _, err := b.prints("java", name, "idl", name); err != nil {
			tb.Fatal(err)
		}
	}
	for _, name := range suite.DataClassNames {
		if _, _, _, _, err := b.prints("c", name, "idl", name); err != nil {
			tb.Fatal(err)
		}
	}
	return b, suite
}

// coldTranscoder is one transcoder-cache miss on a C→IDL data class:
// compare, plan, transcoder compile.
func coldTranscoder(tb testing.TB, b *Broker, name string) {
	ent, cached, err := b.transcoder("c", name, "idl", name, false)
	if err != nil || cached || ent.xc == nil {
		tb.Fatalf("transcoder fill of %s: cached=%v err=%v entry=%+v", name, cached, err, ent)
	}
}

// TestColdFillAllocs pins what a cold transcoder fill costs the collector,
// so that the cold path cannot creep back: two fills, of the 60-class
// suite's first and last data class, allocate 514 times now that integer
// widths are decided on machine words and the comparer's tables and leaf
// lists are made at their final size (1 817 before, most of them big.Int);
// the ceiling is a fifth above that.
func TestColdFillAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race-detector instrumentation inflates allocation counts")
	}
	b, suite := suiteBroker(t, 60)
	first, last := suite.DataClassNames[0], suite.DataClassNames[len(suite.DataClassNames)-1]
	avg := testing.AllocsPerRun(20, func() {
		coldTranscoder(t, b, first)
		coldTranscoder(t, b, last)
	})
	t.Logf("two cold transcoder fills allocate %.0f times", avg)
	const ceiling = 620
	if avg > ceiling {
		t.Fatalf("two cold transcoder fills allocate %.0f times, ceiling %d", avg, ceiling)
	}
}

// BenchmarkColdFill is the broker's cold path on the broker_mixed suite
// with the session resident: a transcoder miss (compare, plan, transcoder
// compile of a C→IDL data class) and a verdict miss (compare of a
// Java↔IDL class), each averaged over the suite's classes in turn.
func BenchmarkColdFill(b *testing.B) {
	br, suite := suiteBroker(b, 500)
	classes := append(append([]string(nil), suite.DataClassNames...), suite.ServiceClassNames...)
	next := 0 // runs on from one timing of a sub-benchmark to its next: a repeat would hit
	b.Run("transcoder", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			coldTranscoder(b, br, suite.DataClassNames[next%len(suite.DataClassNames)])
			next++
		}
	})
	b.Run("verdict", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			name := classes[next%len(classes)]
			next++
			if v, err := br.Compare("java", name, "idl", name); err != nil || v.Cached {
				b.Fatalf("compare of %s: cached=%v err=%v", name, v.Cached, err)
			}
		}
	})
}
