package broker

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/fingerprint"
	"repro/internal/value"
)

// loadC loads a C source into a fresh universe, failing the test on error.
func loadC(t *testing.T, b *Broker, universe, src string) {
	t.Helper()
	if _, existed, err := b.Load(universe, "c", "ilp32", src, ""); err != nil || existed {
		t.Fatalf("load %s: existed=%v err=%v", universe, existed, err)
	}
}

func newBroker(opts Options) *Broker { return New(core.NewSession(), opts) }

func TestCompareAndConvert(t *testing.T) {
	b := newBroker(Options{})
	loadC(t, b, "x", "typedef struct { float r; int n; } mix;")
	loadC(t, b, "y", "typedef struct { int count; float ratio; } pair;")

	v, err := b.Compare("x", "mix", "y", "pair")
	if err != nil {
		t.Fatal(err)
	}
	if v.Relation != core.RelEquivalent {
		t.Fatalf("relation = %v, want equivalent", v.Relation)
	}
	if v.Cached {
		t.Fatal("first compare reported cached")
	}
	v2, err := b.Compare("x", "mix", "y", "pair")
	if err != nil {
		t.Fatal(err)
	}
	if !v2.Cached {
		t.Fatal("second compare not served from cache")
	}

	// record(real, int) → record(int, real): fields cross by type.
	in := value.NewRecord(value.Real{V: 1.5}, value.NewInt(7))
	out, err := b.Convert("x", "mix", "y", "pair", in)
	if err != nil {
		t.Fatal(err)
	}
	rec, ok := out.(value.Record)
	if !ok || len(rec.Fields) != 2 {
		t.Fatalf("converted value = %v", out)
	}
	if got := rec.Fields[0].(value.Int); got.V.Int64() != 7 {
		t.Fatalf("field 0 = %v, want 7", rec.Fields[0])
	}
	if got := rec.Fields[1].(value.Real); got.V != 1.5 {
		t.Fatalf("field 1 = %v, want 1.5", rec.Fields[1])
	}

	st := b.Stats()
	if st.CompareRuns != 1 {
		t.Errorf("CompareRuns = %d, want 1", st.CompareRuns)
	}
	if st.Compiles != 1 {
		t.Errorf("Compiles = %d, want 1", st.Compiles)
	}
	if st.CompareHits != 1 {
		t.Errorf("CompareHits = %d, want 1", st.CompareHits)
	}
	if st.InFlight != 0 {
		t.Errorf("InFlight = %d, want 0", st.InFlight)
	}
}

// Permuted declarations share a verdict-cache entry (canonical key) but
// not a converter-cache entry (exact key).
func TestCanonicalVerdictSharing(t *testing.T) {
	b := newBroker(Options{})
	loadC(t, b, "x", "typedef struct { float r; int n; } mix;")
	loadC(t, b, "y", "typedef struct { int count; float ratio; } pair;")
	loadC(t, b, "z", "typedef struct { float v; int k; } mix2;")

	if _, err := b.Compare("x", "mix", "y", "pair"); err != nil {
		t.Fatal(err)
	}
	// z/mix2 is field-for-field identical to x/mix, so (z,y) has the same
	// canonical pair as (x,y): the verdict must come from the cache.
	v, err := b.Compare("z", "mix2", "y", "pair")
	if err != nil {
		t.Fatal(err)
	}
	if !v.Cached {
		t.Fatal("structurally identical pair missed the verdict cache")
	}
	// mix and pair are permutations of each other, so they share one
	// canonical digest — the swapped pair keys to the same entry, and
	// since permutation-equals implies equivalence, the symmetric verdict
	// is correct.
	if v, err = b.Compare("y", "pair", "x", "mix"); err != nil || !v.Cached {
		t.Fatalf("swapped permuted pair: cached=%v err=%v (want cache hit)", v.Cached, err)
	}
	if st := b.Stats(); st.CompareRuns != 1 {
		t.Errorf("CompareRuns = %d, want 1", st.CompareRuns)
	}

	// Converters for x→y and z→y share the exact key too (identical
	// layouts), so only one compile happens for both.
	in := value.NewRecord(value.Real{V: 2}, value.NewInt(3))
	if _, err := b.Convert("x", "mix", "y", "pair", in); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Convert("z", "mix2", "y", "pair", in); err != nil {
		t.Fatal(err)
	}
	if st := b.Stats(); st.Compiles != 1 {
		t.Errorf("Compiles = %d, want 1 (identical exact pair)", st.Compiles)
	}
}

func TestSingleflight(t *testing.T) {
	b := newBroker(Options{})
	loadC(t, b, "x", "typedef struct { float r; int n; } mix;")
	loadC(t, b, "y", "typedef struct { int count; float ratio; } pair;")

	const n = 64
	var wg sync.WaitGroup
	errs := make(chan error, 2*n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if v, err := b.Compare("x", "mix", "y", "pair"); err != nil {
				errs <- err
			} else if v.Relation != core.RelEquivalent {
				errs <- fmt.Errorf("relation %v", v.Relation)
			}
			in := value.NewRecord(value.Real{V: 1}, value.NewInt(2))
			if _, err := b.Convert("x", "mix", "y", "pair", in); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := b.Stats()
	if st.CompareRuns != 1 {
		t.Errorf("CompareRuns = %d, want 1 (singleflight)", st.CompareRuns)
	}
	if st.Compiles != 1 {
		t.Errorf("Compiles = %d, want 1 (singleflight)", st.Compiles)
	}
	if total := st.CompareHits + st.CompareMisses + st.CompareCoalesced; total != n {
		t.Errorf("compare requests accounted = %d, want %d", total, n)
	}
}

func TestSubtypeDirections(t *testing.T) {
	b := newBroker(Options{})
	loadC(t, b, "x", "typedef short narrow;")
	loadC(t, b, "y", "typedef int wide;")

	v, err := b.Compare("x", "narrow", "y", "wide")
	if err != nil {
		t.Fatal(err)
	}
	if v.Relation != core.RelSubtypeAB {
		t.Fatalf("relation = %v, want subtype A<:B", v.Relation)
	}
	if _, err := b.Convert("x", "narrow", "y", "wide", value.NewInt(-5)); err != nil {
		t.Fatalf("narrow→wide convert: %v", err)
	}
	// The reverse pair is B<:A: Convert must refuse and say to swap.
	if _, err := b.Convert("y", "wide", "x", "narrow", value.NewInt(1)); err == nil ||
		!strings.Contains(err.Error(), "swap") {
		t.Fatalf("wide→narrow convert error = %v, want swap hint", err)
	}
}

func TestMismatchCachedNegative(t *testing.T) {
	b := newBroker(Options{})
	loadC(t, b, "x", "typedef struct { float a; } fa;")
	loadC(t, b, "y", "typedef struct { int b; } ib;")
	v, err := b.Compare("x", "fa", "y", "ib")
	if err != nil {
		t.Fatal(err)
	}
	if v.Relation != core.RelNone || v.Explain == "" {
		t.Fatalf("verdict = %+v, want RelNone with diagnosis", v)
	}
	if _, err := b.Convert("x", "fa", "y", "ib", value.NewRecord(value.Real{V: 1})); err == nil {
		t.Fatal("convert of mismatched pair succeeded")
	}
	if v, err = b.Compare("x", "fa", "y", "ib"); err != nil || !v.Cached {
		t.Fatalf("negative verdict not cached: %+v %v", v, err)
	}
}

// Annotation changes lowering; the content-addressed caches need no
// invalidation because the annotated lowering fingerprints differently.
func TestAnnotateContentAddressed(t *testing.T) {
	b := newBroker(Options{})
	const holder = "typedef struct { float *p; } holder;"
	loadC(t, b, "x", holder)
	loadC(t, b, "y", "typedef struct { float x; } plain;")
	if _, _, err := b.Load("xnn", "c", "ilp32", holder, "annotate holder.p nonnull"); err != nil {
		t.Fatal(err)
	}

	v, err := b.Compare("x", "holder", "y", "plain")
	if err != nil {
		t.Fatal(err)
	}
	if v.Relation == core.RelEquivalent {
		t.Fatal("nullable pointer should not be equivalent to plain float")
	}
	v, err = b.Compare("xnn", "holder", "y", "plain")
	if err != nil {
		t.Fatal(err)
	}
	if v.Relation != core.RelEquivalent {
		t.Fatalf("after nonnull annotation: relation = %v, want equivalent", v.Relation)
	}
	if v.Cached {
		t.Fatal("annotated compare served the unannotated entry")
	}
}

// A broker that replays another's warm load records lowers every
// declaration to the same canonical print: a universe changes only
// through Load, so its record is the whole of how it was made.
func TestWarmReplayKeepsPrints(t *testing.T) {
	src := newBroker(Options{})
	if _, _, err := src.Load("x", "c", "ilp32", "typedef struct { int n; float *p; } holder;", "annotate holder.p nonnull\nannotate holder.n range=0..10"); err != nil {
		t.Fatal(err)
	}
	loadC(t, src, "y", "typedef struct { float x; int k; } plain;")
	if _, err := src.Compare("x", "holder", "y", "plain"); err != nil {
		t.Fatal(err)
	}
	recs, entries := src.WarmEntries(0)
	if len(recs) != 2 || len(entries) == 0 {
		t.Fatalf("warm state: %d load records, %d entries", len(recs), len(entries))
	}
	dst := newBroker(Options{})
	for _, r := range recs {
		if _, _, err := dst.Load(r.Universe, r.Lang, r.Model, r.Source, r.Script); err != nil {
			t.Fatal(err)
		}
		names, err := src.DeclNames(r.Universe)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range names {
			a, errA := src.Mtype(r.Universe, d)
			b, errB := dst.Mtype(r.Universe, d)
			if errA != nil || errB != nil {
				t.Fatal(errA, errB)
			}
			if fingerprint.Of(a).Canonical != fingerprint.Of(b).Canonical {
				t.Errorf("%s.%s: replayed record lowers to another canonical print", r.Universe, d)
			}
		}
	}
}

func TestLRUEviction(t *testing.T) {
	b := newBroker(Options{VerdictCacheSize: 2, ConverterCacheSize: 2})
	var decls []string
	var src strings.Builder
	for k := 1; k <= 6; k++ {
		fmt.Fprintf(&src, "typedef struct { int a[%d]; } t%d;\n", k, k)
		decls = append(decls, fmt.Sprintf("t%d", k))
	}
	loadC(t, b, "u", src.String())
	for _, d := range decls {
		if v, err := b.Compare("u", d, "u", d); err != nil || v.Relation != core.RelEquivalent {
			t.Fatalf("%s: %+v %v", d, v, err)
		}
	}
	st := b.Stats()
	if st.Evictions == 0 {
		t.Errorf("no evictions with cache size 2 and 6 pairs")
	}
	if st.VerdictEntries > 2 {
		t.Errorf("VerdictEntries = %d, exceeds capacity", st.VerdictEntries)
	}
	// A re-compare of an evicted pair recomputes rather than failing.
	if v, err := b.Compare("u", decls[0], "u", decls[0]); err != nil || v.Cached {
		t.Fatalf("evicted pair: cached=%v err=%v", v.Cached, err)
	}
}

// Satellite: core.Session is documented as not safe for concurrent use —
// its lowering memo and comparer caches are plain maps. This test drives
// Compare, Convert, Mtype, DeclNames and Load (with a script) through the
// broker from many goroutines under -race; the broker's session mutex is
// what makes it pass (removing b.sessMu.Lock from Mtype makes the race
// detector fire on lower.(*Lowerer).Decl's memo map).
func TestConcurrentSessionUse(t *testing.T) {
	b := newBroker(Options{})
	loadC(t, b, "x", `
typedef struct { float r; int n; } mix;
typedef struct { mix m; float extra; } outer;
typedef short narrow;
`)
	loadC(t, b, "y", `
typedef struct { int count; float ratio; } pair;
typedef struct { float bonus; pair p; } wrapper;
typedef int wide;
`)

	const workers = 24
	const iters = 50
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				switch (w + i) % 5 {
				case 0:
					if _, err := b.Compare("x", "mix", "y", "pair"); err != nil {
						errs <- err
						return
					}
				case 1:
					if _, err := b.Compare("x", "outer", "y", "wrapper"); err != nil {
						errs <- err
						return
					}
				case 2:
					in := value.NewRecord(value.Real{V: float64(i)}, value.NewInt(int64(i)))
					if _, err := b.Convert("x", "mix", "y", "pair", in); err != nil {
						errs <- err
						return
					}
				case 3:
					if _, err := b.Mtype("x", "outer"); err != nil {
						errs <- err
						return
					}
				case 4:
					if _, err := b.DeclNames("y"); err != nil {
						errs <- err
						return
					}
				}
			}
		}(w)
	}
	// Concurrent loads of new universes, one of them annotated.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			u := fmt.Sprintf("extra%d", i)
			if _, _, err := b.Load(u, "c", "ilp32", "typedef struct { int q; } qq;", ""); err != nil {
				errs <- err
				return
			}
		}
		if _, _, err := b.Load("annotated", "c", "ilp32", "typedef struct { int q; } qq;", "annotate qq.q range=0..10"); err != nil {
			errs <- err
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := b.Stats()
	if st.CompareRuns < 2 {
		t.Errorf("CompareRuns = %d, want ≥ 2 distinct pairs compared", st.CompareRuns)
	}
}
