package transcode

import (
	"errors"

	"repro/internal/limits"
	"repro/internal/wire"
)

// Sequence streaming: a compiled transcoder whose root pair is
// list-shaped (a length-prefixed CDR sequence on both sides) exposes its
// per-element program so internal/stream can run the conversion
// chunk-at-a-time. The caller owns the count prefix and the element
// windows; SeqStep executes element programs against a window whose
// index 0 is 8-aligned relative to the payload start, which preserves
// every CDR alignment decision (all primitive alignments divide 8, so a
// subtree's byte image depends only on its start offset mod 8).

// SeqStreamable reports whether this pair can be executed
// chunk-at-a-time: the root conversion is sequence-to-sequence and the
// per-element program compiled into the fused subset.
func (t *Transcoder) SeqStreamable() bool { return t.seqElem != nil }

// CheckSeqCount applies the fused list program's length-cap validation
// to a streamed sequence count, so a streaming executor rejects exactly
// the counts the one-shot program would.
func CheckSeqCount(n uint64) error {
	if n > wire.MaxListLen {
		return limits.Exceededf("transcode: list length %d exceeds limit of %d", n, wire.MaxListLen)
	}
	return nil
}

// SeqStep converts as many complete source elements as the window holds,
// up to remaining, appending their output to dst. Both buffers are
// windows into the logical payload: src[0] and dst[0] must sit at
// offsets that are multiples of 8 within their respective payloads (the
// count prefix handled by the caller), so window-relative alignment
// equals payload-relative alignment. off is the read cursor within src.
//
// It returns the extended output, the advanced cursor, and the number of
// elements converted. A source element that extends past the window
// stops the step with a nil error — the caller supplies more bytes and
// calls again; any other element failure (range, discriminant, depth) is
// final and returned with the cursor and output rolled back to the last
// complete element.
func (t *Transcoder) SeqStep(dst, src []byte, off, remaining int) ([]byte, int, int, error) {
	if t.seqElem == nil {
		return dst, off, 0, errors.New("transcode: SeqStep on a pair that does not stream")
	}
	x := t.pool.Get().(*xctx)
	x.src, x.dst, x.base, x.off, x.depth = src, dst, 0, off, 1
	// Fixed-layout elements move by table; the element program sees only
	// the one the kernel stopped at, and says why.
	done := 0
	if t.seqKern != nil {
		done, _ = t.seqKern.step(x, remaining)
	}
	var err error
	for done < remaining {
		markDst := len(x.dst)
		markOff := x.off
		if e := t.seqElem(x); e != nil {
			// Roll back the partial element. A short read means the
			// window ended inside it — not an error, the element simply
			// needs more input; anything else is final, decided by bytes
			// already present.
			x.dst = x.dst[:markDst]
			x.off = markOff
			if !errors.Is(e, wire.ErrShort) {
				err = e
			}
			break
		}
		done++
	}
	out, newOff := x.dst, x.off
	x.src, x.dst = nil, nil
	x.arena = x.arena[:0]
	t.pool.Put(x)
	return out, newOff, done, err
}
