package stream

import (
	"bytes"
	"errors"
	"math/big"
	"testing"

	"repro/internal/compare"
	"repro/internal/mtype"
	"repro/internal/plan"
	"repro/internal/testutil"
	"repro/internal/transcode"
	"repro/internal/value"
	"repro/internal/wire"
)

func i32() *mtype.Type    { return mtype.NewIntegerBits(32, true) }
func i16() *mtype.Type    { return mtype.NewIntegerBits(16, true) }
func f32() *mtype.Type    { return mtype.NewFloat32() }
func f64t() *mtype.Type   { return mtype.NewFloat64() }
func latin1() *mtype.Type { return mtype.NewCharacter(mtype.RepLatin1) }
func strT() *mtype.Type   { return mtype.NewList(latin1()) }
func ranged(lo, hi int64) *mtype.Type {
	return mtype.NewInteger(big.NewInt(lo), big.NewInt(hi))
}

func str(s string) value.Value {
	var vs []value.Value
	for _, r := range s {
		vs = append(vs, value.Char{R: r})
	}
	return value.FromSlice(vs)
}

// buildXC compiles the fused transcoder for an equivalent pair, or for
// a subtype pair when a only widens into b.
func buildXC(t testing.TB, a, b *mtype.Type) *transcode.Transcoder {
	t.Helper()
	c := compare.NewComparer(compare.DefaultRules())
	m, ok := c.Equivalent(a, b)
	if !ok {
		m, ok = c.Subtype(a, b)
	}
	if !ok {
		t.Fatalf("no match:\n%s", c.Explain(a, b, compare.ModeEqual))
	}
	p, err := plan.Build(m)
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	xc, err := transcode.Compile(p, a, b)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return xc
}

// recListPair is the workhorse fixture: a sequence of records whose
// fields permute, so elements re-emit structurally (no bulk copy).
func recListPair(t *testing.T) (*mtype.Type, *mtype.Type, *transcode.Transcoder) {
	t.Helper()
	a := mtype.NewList(mtype.RecordOf(i32(), f64t()))
	b := mtype.NewList(mtype.RecordOf(f64t(), i32()))
	return a, b, buildXC(t, a, b)
}

func recListPayload(t *testing.T, a *mtype.Type, n int) []byte {
	t.Helper()
	vs := make([]value.Value, n)
	for i := range vs {
		vs[i] = value.NewRecord(value.NewInt(int64(i)-3), value.Real{V: float64(i) * 1.5})
	}
	src, err := wire.Marshal(a, value.FromSlice(vs))
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return src
}

// runSplits drives src through a fresh engine in the given split sizes
// (cycling), returning the concatenated output.
func runSplits(t *testing.T, xc *transcode.Transcoder, opts Options, src []byte, sizes ...int) ([]byte, error) {
	t.Helper()
	eng := New(xc, opts)
	defer eng.Release()
	var got []byte
	si := 0
	for off := 0; off < len(src); {
		n := sizes[si%len(sizes)]
		si++
		if n <= 0 {
			n = 1
		}
		if off+n > len(src) {
			n = len(src) - off
		}
		if err := eng.Push(src[off : off+n]); err != nil {
			return nil, err
		}
		got = append(got, eng.Take()...)
		off += n
	}
	tail, err := eng.Finish()
	if err != nil {
		return nil, err
	}
	return append(got, tail...), nil
}

func TestArbitrarySplitsMatchOneShot(t *testing.T) {
	a, _, xc := recListPair(t)
	if !xc.SeqStreamable() {
		t.Fatal("record-list pair should be streamable")
	}
	src := recListPayload(t, a, 257)
	want, err := xc.Transcode(src)
	if err != nil {
		t.Fatalf("one-shot: %v", err)
	}
	for _, sizes := range [][]int{{1}, {2}, {3}, {7}, {8}, {13}, {64}, {1, 9, 2, 31}, {len(src)}} {
		got, err := runSplits(t, xc, Options{}, src, sizes...)
		if err != nil {
			t.Fatalf("splits %v: %v", sizes, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("splits %v: output mismatch (%d vs %d bytes)", sizes, len(got), len(want))
		}
	}
}

func TestVariableLengthElements(t *testing.T) {
	// String elements: element sizes differ, exercising the incomplete-
	// element resume path heavily.
	a := mtype.NewList(mtype.RecordOf(strT(), i16()))
	b := mtype.NewList(mtype.RecordOf(i16(), strT()))
	xc := buildXC(t, a, b)
	vs := []value.Value{
		value.NewRecord(str(""), value.NewInt(1)),
		value.NewRecord(str("x"), value.NewInt(-2)),
		value.NewRecord(str("a longer string that spans several chunks when split small"), value.NewInt(3)),
		value.NewRecord(str("tail"), value.NewInt(4)),
	}
	src, err := wire.Marshal(a, value.FromSlice(vs))
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	want, err := xc.Transcode(src)
	if err != nil {
		t.Fatalf("one-shot: %v", err)
	}
	for _, sizes := range [][]int{{1}, {3}, {5, 1, 17}} {
		got, err := runSplits(t, xc, Options{}, src, sizes...)
		if err != nil {
			t.Fatalf("splits %v: %v", sizes, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("splits %v: output mismatch", sizes)
		}
	}
}

func TestBulkScalarList(t *testing.T) {
	a := mtype.NewList(i32())
	xc := buildXC(t, a, mtype.NewList(i32()))
	vs := make([]value.Value, 1000)
	for i := range vs {
		vs[i] = value.NewInt(int64(i))
	}
	src, err := wire.Marshal(a, value.FromSlice(vs))
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	got, err := runSplits(t, xc, Options{}, src, 1023)
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	if !bytes.Equal(got, src) {
		t.Fatal("identity scalar list must round-trip byte-identically")
	}
}

func TestStreamedFlag(t *testing.T) {
	a, _, xc := recListPair(t)
	src := recListPayload(t, a, 4)
	eng := New(xc, Options{})
	defer eng.Release()
	if eng.Buffered() {
		t.Fatal("streamable pair must not start buffered")
	}
	if err := eng.Push(src); err != nil {
		t.Fatalf("push: %v", err)
	}
	if _, err := eng.Finish(); err != nil {
		t.Fatalf("finish: %v", err)
	}
	if !eng.Streamed() {
		t.Fatal("elements converted chunk-at-a-time must set Streamed")
	}
}

func TestBufferedFallback(t *testing.T) {
	// Record root: no streamable form, so the engine buffers and
	// one-shots at Finish.
	a := mtype.RecordOf(i32(), f64t())
	b := mtype.RecordOf(f64t(), i32())
	xc := buildXC(t, a, b)
	src, err := wire.Marshal(a, value.NewRecord(value.NewInt(9), value.Real{V: 2.5}))
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	want, err := xc.Transcode(src)
	if err != nil {
		t.Fatalf("one-shot: %v", err)
	}
	eng := New(xc, Options{})
	defer eng.Release()
	if !eng.Buffered() {
		t.Fatal("record root must take buffered fallback")
	}
	for _, b := range src {
		if err := eng.Push([]byte{b}); err != nil {
			t.Fatalf("push: %v", err)
		}
	}
	got, err := eng.Finish()
	if err != nil {
		t.Fatalf("finish: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("buffered fallback output differs from one-shot")
	}
	if eng.Streamed() {
		t.Fatal("buffered fallback must not report Streamed")
	}
}

func TestBufferedFallbackTooLarge(t *testing.T) {
	a := mtype.RecordOf(i32(), f64t())
	xc := buildXC(t, a, mtype.RecordOf(f64t(), i32()))
	eng := New(xc, Options{MaxBuffer: 16})
	defer eng.Release()
	err := eng.Push(make([]byte, 17))
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("got %v, want ErrTooLarge", err)
	}
}

func TestElementOverWindowCap(t *testing.T) {
	// One giant string element cannot complete within MaxBuffer.
	a := mtype.NewList(mtype.RecordOf(strT(), i16()))
	b := mtype.NewList(mtype.RecordOf(i16(), strT()))
	xc := buildXC(t, a, b)
	big := make([]value.Value, 300)
	for i := range big {
		big[i] = value.Char{R: 'x'}
	}
	src, err := wire.Marshal(a, value.FromSlice([]value.Value{
		value.NewRecord(value.FromSlice(big), value.NewInt(1)),
	}))
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	eng := New(xc, Options{MaxBuffer: 64})
	defer eng.Release()
	var perr error
	for off := 0; off < len(src) && perr == nil; off += 32 {
		end := off + 32
		if end > len(src) {
			end = len(src)
		}
		perr = eng.Push(src[off:end])
	}
	if perr == nil {
		_, perr = eng.Finish()
	}
	if !errors.Is(perr, ErrTooLarge) {
		t.Fatalf("got %v, want ErrTooLarge", perr)
	}
}

func TestTrailingBytes(t *testing.T) {
	a, _, xc := recListPair(t)
	src := append(recListPayload(t, a, 3), 0xcc)
	_, err := runSplits(t, xc, Options{}, src, 8)
	if err == nil {
		t.Fatal("trailing byte must fail")
	}
}

func TestShortInput(t *testing.T) {
	a, _, xc := recListPair(t)
	src := recListPayload(t, a, 3)
	for _, cut := range []int{0, 2, 4, len(src) - 1} {
		eng := New(xc, Options{})
		if err := eng.Push(src[:cut]); err != nil {
			t.Fatalf("cut %d: push: %v", cut, err)
		}
		_, err := eng.Finish()
		if !errors.Is(err, wire.ErrShort) {
			t.Fatalf("cut %d: got %v, want wrapped wire.ErrShort", cut, err)
		}
		eng.Release()
	}
}

func TestCorruptCount(t *testing.T) {
	a, _, xc := recListPair(t)
	src := recListPayload(t, a, 2)
	// Claim far more elements than MaxListLen allows.
	src[0], src[1], src[2], src[3] = 0xff, 0xff, 0xff, 0xff
	_, err := runSplits(t, xc, Options{}, src, 4)
	if err == nil {
		t.Fatal("oversized count must fail")
	}
}

func TestEngineReuseAfterRelease(t *testing.T) {
	a, _, xc := recListPair(t)
	src := recListPayload(t, a, 50)
	want, err := xc.Transcode(src)
	if err != nil {
		t.Fatalf("one-shot: %v", err)
	}
	for i := 0; i < 10; i++ {
		got, err := runSplits(t, xc, Options{}, src, 17)
		if err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("round %d: output mismatch", i)
		}
	}
}

// TestWindowsStayPoolable is the reason relays push in shuttle-sized
// pieces: fed 64 KiB at a time, a 4 MiB sequence leaves both windows
// under maxPooledWindow, so Release keeps them; fed a megabyte at once
// they outgrow it and the next stream starts from nothing.
func TestWindowsStayPoolable(t *testing.T) {
	a, _, xc := recListPair(t)
	src := recListPayload(t, a, (4<<20)/16)
	for _, tc := range []struct {
		piece    int
		poolable bool
	}{{64 << 10, true}, {1<<20 + 64<<10, false}} {
		eng := New(xc, Options{})
		for off := 0; off < len(src); off += tc.piece {
			if err := eng.Push(src[off:min(off+tc.piece, len(src))]); err != nil {
				t.Fatal(err)
			}
			eng.Take()
		}
		if _, err := eng.Finish(); err != nil {
			t.Fatal(err)
		}
		if got := cap(eng.in) <= maxPooledWindow && cap(eng.out) <= maxPooledWindow; got != tc.poolable {
			t.Errorf("%d-byte pieces: windows of %d and %d bytes, poolable = %v, want %v",
				tc.piece, cap(eng.in), cap(eng.out), got, tc.poolable)
		}
		eng.in, eng.out = nil, nil // keep the oversized windows out of other tests' pool
		eng.Release()
	}
}

// TestSteadyStateAllocs pins the pooled hot path: pushing chunks through
// a reused engine must not allocate once windows are grown.
func TestSteadyStateAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are unstable under the race detector")
	}
	a, _, xc := recListPair(t)
	src := recListPayload(t, a, 256)
	run := func() {
		eng := New(xc, Options{})
		for off := 0; off < len(src); off += 512 {
			end := off + 512
			if end > len(src) {
				end = len(src)
			}
			if err := eng.Push(src[off:end]); err != nil {
				t.Fatalf("push: %v", err)
			}
			eng.Take()
		}
		if _, err := eng.Finish(); err != nil {
			t.Fatalf("finish: %v", err)
		}
		eng.Release()
	}
	run() // warm pools and grow windows
	allocs := testing.AllocsPerRun(50, run)
	if allocs > 4 {
		t.Fatalf("steady-state stream conversion allocates %.1f objects per run, want <= 4", allocs)
	}
}
