package transcode

import (
	"bytes"
	"crypto/sha256"
	"testing"

	"repro/internal/mtype"
	"repro/internal/testutil"
)

// TestStrideKernelAgainstClosure runs the SeqStep matrix twice per
// fixture — through the kernel, and through the per-element closure
// program alone — and requires the same transcript from both: bytes,
// cursor, element count and error text at every residue pair and split.
// (TestStrideGolden holds the same transcript to the pre-kernel commit,
// and the matrix itself holds every call to the tree engine.)
func TestStrideKernelAgainstClosure(t *testing.T) {
	for _, p := range stridePairs() {
		fx, err := buildStride(p)
		if err != nil {
			t.Fatal(err)
		}
		xc := fx.shapes["list"].xc
		if xc.seqKern == nil {
			t.Fatalf("%s: fixed-layout element pair compiled no kernel", p.name)
		}
		closure := &Transcoder{seqElem: xc.seqElem}
		closure.pool.New = func() any { return new(xctx) }
		fast, slow := sha256.New(), sha256.New()
		fx.seqStepMatrix(t, xc, fast)
		fx.seqStepMatrix(t, closure, slow)
		if !bytes.Equal(fast.Sum(nil), slow.Sum(nil)) {
			t.Errorf("%s: kernel and closure program transcripts differ", p.name)
		}
	}
}

func listKernel(t *testing.T, a, b *mtype.Type, sub bool) *kernel {
	t.Helper()
	la := mtype.NewList(a)
	lb := la
	if a != b {
		lb = mtype.NewList(b)
	}
	pl, err := matchPair(la, lb, sub)
	if err != nil {
		t.Fatal(err)
	}
	xc, err := Compile(pl, la, lb)
	if err != nil {
		t.Fatal(err)
	}
	return xc.seqKern
}

// TestStrideTable reads move tables as the artifact of the pair they
// are: what coalesces, what stays a stride, where the holes are.
func TestStrideTable(t *testing.T) {
	at := func(k *kernel, rs, rd int) *table {
		return k.at(&xctx{off: rs, dst: make([]byte, rd)})
	}

	// relay_bulk's element after the count prefix: the first record sits
	// at residue 4 and is four bytes short of the rest; from the second on
	// both sides keep their residue and 8 moves carry 48 of 64 bytes.
	ea, eb := bulkRecPair()
	k := listKernel(t, ea, eb, false)
	if first := at(k, 4, 4); first.srcSize != 60 || first.dstSize != 64 || first.steady {
		t.Errorf("first record: %+v", first)
	}
	tab := at(k, 0, 4)
	if tab.srcSize != 64 || tab.dstSize != 64 || !tab.steady || tab.same || len(tab.moves) != 8 {
		t.Fatalf("steady record: %+v", tab)
	}
	for i, m := range tab.moves {
		if want := 8 - 4*(i%2); m.op != opCopy || m.n != want || m.chk.kind != rangeNone {
			t.Errorf("move %d = %+v, want a %d-byte copy", i, m, want)
		}
	}

	// An identity record without padding is one run: n records, one copy.
	dense := mtype.RecordOf(i32(), i32())
	if tab := at(listKernel(t, dense, dense, false), 4, 4); !tab.whole || len(tab.moves) != 1 || tab.moves[0].n != 8 {
		t.Errorf("dense identity: %+v", tab)
	}
	// With padding it is an in-place copy in two runs around the hole.
	holes := mtype.RecordOf(i32(), f64t())
	if tab := at(listKernel(t, holes, holes, false), 0, 0); !tab.same || tab.whole || len(tab.moves) != 2 {
		t.Errorf("padded identity: %+v", tab)
	}
	// Misaligned, the same record is no longer in place.
	if tab := at(listKernel(t, holes, holes, false), 0, 4); tab.same {
		t.Errorf("padded identity across residues 0 → 4: %+v", tab)
	}

	// Range checks and conversions ride in the table.
	ra, rb := rangedRecPair()
	checks := 0
	for _, m := range at(listKernel(t, ra, rb, true), 4, 4).moves {
		if m.chk.kind != rangeNone {
			checks++
		}
	}
	if checks != 2 {
		t.Errorf("ranged pair carries %d checked moves, want 2", checks)
	}
	fa, fb := float32RecPair()
	reals := 0
	for _, m := range at(listKernel(t, fa, fb, true), 0, 0).moves {
		if m.op == opReal {
			reals++
		}
	}
	if reals != 2 {
		t.Errorf("binary32 pair carries %d real conversions, want 2 (one widening, one canonicalising)", reals)
	}

	// A variable-size leaf anywhere disqualifies the pair.
	va, vb := mtype.RecordOf(i32(), strT()), mtype.RecordOf(strT(), i32())
	if k := listKernel(t, va, vb, false); k != nil {
		t.Errorf("record with a string leaf compiled a kernel")
	}
}

// TestAllocsSeqStepStride pins the kernel's allocation story: a step
// into an output buffer that is already large enough allocates nothing —
// no spans arena, no padding appends, no per-record closures.
func TestAllocsSeqStepStride(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race-detector instrumentation inflates allocation counts")
	}
	const records = 512
	xc, src := strideWindow(t, records)
	dst := make([]byte, 0, 2*len(src))
	allocs := testing.AllocsPerRun(100, func() {
		out, _, done, err := xc.SeqStep(dst[:4], src, 4, records)
		if err != nil || done != records {
			t.Fatalf("SeqStep = %d records, %v", done, err)
		}
		dst = out[:0]
	})
	if allocs != 0 {
		t.Fatalf("SeqStep over %d fixed-layout records allocates %.1f objects, want 0", records, allocs)
	}
}
