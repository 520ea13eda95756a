// Package stream executes fused transcode programs chunk-at-a-time, so
// length-prefixed CDR sequences of any size flow through a compiled
// coercion in constant memory. It is the resume-point layer over
// internal/transcode: a Transcoder here feeds arbitrary byte splits into
// the per-element program exposed by transcode.SeqStep, holding only the
// current incomplete element and the unflushed output tail in pooled
// scratch.
//
// The state machine has three resume points:
//
//	count — the u32 element count has not fully arrived;
//	elems — count known, elements convert as their bytes complete;
//	done  — count exhausted; any further input is trailing garbage.
//
// Alignment makes resumption subtle: CDR aligns every primitive to its
// size relative to the payload start, so a window cannot start at an
// arbitrary byte. Every CDR alignment divides 8, which means a subtree's
// byte image depends only on its start offset mod 8 — the engine
// therefore compacts its input window and flushes its output window only
// in multiples of 8 bytes, and window-relative offsets stay congruent to
// payload-relative offsets for every alignment decision the compiled
// program makes.
//
// Pairs whose root is not a streamable sequence (records, choices, every
// pair on transcode's tree rung) degrade to buffered mode: input
// accumulates up to Options.MaxBuffer and converts in one shot at Finish;
// payloads past the cap fail with ErrTooLarge. These are the bottom rows of
// transcode's ladder — correctness everywhere, constant memory where it can.
package stream

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"repro/internal/transcode"
	"repro/internal/wire"
)

// DefaultMaxBuffer bounds buffered-fallback payloads and the input
// window a single element may occupy (16 MiB, matching orb's frame cap:
// anything that fit in a frame before still fits in the fallback).
const DefaultMaxBuffer = 16 << 20

// ErrTooLarge is returned when a payload needs buffering — a
// non-streamable pair, or one element of a streamable one — beyond the
// configured cap. It is the typed signal that a relay must either stream
// end-to-end or refuse, never silently balloon.
var ErrTooLarge = errors.New("stream: payload exceeds buffered-fallback cap")

// Options configures a streaming transcoder.
type Options struct {
	// MaxBuffer caps buffered-fallback payloads and the bytes one
	// incomplete element may pin in the input window. 0 selects
	// DefaultMaxBuffer.
	MaxBuffer int
}

func (o Options) withDefaults() Options {
	if o.MaxBuffer <= 0 {
		o.MaxBuffer = DefaultMaxBuffer
	}
	return o
}

// Engine states.
const (
	stateCount    = iota // awaiting the u32 sequence count
	stateElems           // converting elements
	stateDone            // sequence complete; trailing input is an error
	stateBuffered        // non-streamable pair: accumulate and one-shot
	stateFailed          // terminal error recorded in err
)

// Transcoder pushes source bytes in arbitrary splits through a compiled
// pair. Not safe for concurrent use.
type Transcoder struct {
	xc  *transcode.Transcoder
	max int

	state     int
	err       error
	in        []byte // input window; in[0] is 8-aligned in the payload
	off       int    // window-relative parse cursor
	out       []byte // unflushed output; out[0] is 8-aligned in the output
	taken     int    // prefix of out already handed to the consumer
	remaining int    // elements left to convert
	streamed  bool   // true once any element streamed (stats only)
}

// enginePool recycles engines with their grown windows, so a relay
// processing many streams reaches a zero-allocation steady state.
var enginePool = sync.Pool{New: func() any { return new(Transcoder) }}

// maxPooledWindow caps the scratch retained by a pooled engine; windows
// grown past it (one giant element) are dropped rather than pinned.
const maxPooledWindow = 1 << 20

// New returns a streaming transcoder over a compiled pair, drawing
// pooled scratch. Release it with Release when the stream is finished or
// abandoned.
func New(xc *transcode.Transcoder, opts Options) *Transcoder {
	t := enginePool.Get().(*Transcoder)
	t.Reset(xc, opts)
	return t
}

// Reset re-arms the engine for a new stream over the given pair,
// keeping its scratch.
func (t *Transcoder) Reset(xc *transcode.Transcoder, opts Options) {
	opts = opts.withDefaults()
	t.xc = xc
	t.max = opts.MaxBuffer
	t.err = nil
	t.in = t.in[:0]
	t.out = t.out[:0]
	t.off, t.taken, t.remaining = 0, 0, 0
	t.streamed = false
	if xc != nil && xc.SeqStreamable() {
		t.state = stateCount
	} else {
		t.state = stateBuffered
	}
}

// Release returns the engine and its scratch to the pool. The engine
// must not be used afterwards; output slices previously returned by
// Take/Finish are invalidated.
func (t *Transcoder) Release() {
	t.xc = nil
	t.err = nil
	if cap(t.in) > maxPooledWindow {
		t.in = nil
	}
	if cap(t.out) > maxPooledWindow {
		t.out = nil
	}
	t.in, t.out = t.in[:0], t.out[:0]
	enginePool.Put(t)
}

// Streamed reports whether any element took the chunk-at-a-time path
// (false for buffered fallback). Valid any time.
func (t *Transcoder) Streamed() bool { return t.streamed }

// Buffered reports whether the engine is in buffered-fallback mode.
func (t *Transcoder) Buffered() bool { return t.state == stateBuffered }

// Push feeds the next split of source bytes. Converted output becomes
// available through Take. A non-nil error is terminal.
func (t *Transcoder) Push(p []byte) error {
	if t.err != nil {
		return t.err
	}
	t.reclaim()
	if t.state == stateBuffered {
		if len(t.in)+len(p) > t.max {
			return t.fail(fmt.Errorf("%w: non-streamable pair over %d bytes (cap %d)", ErrTooLarge, len(t.in)+len(p), t.max))
		}
		t.in = append(t.in, p...)
		return nil
	}
	t.in = append(t.in, p...)
	return t.advance()
}

// Take returns converted output ready for the consumer — always a
// multiple of 8 bytes so the retained tail keeps its alignment phase.
// The slice aliases engine scratch and is valid only until the next
// Push/Finish/Release call. Returns nil when nothing is flushable.
func (t *Transcoder) Take() []byte {
	n := len(t.out) &^ 7
	if n <= t.taken {
		return nil
	}
	ret := t.out[t.taken:n]
	t.taken = n
	return ret
}

// Finish declares end of input, validates the stream consumed exactly
// one whole value, and returns the final output bytes (the unflushed
// tail in streaming mode; the entire conversion in buffered mode). The
// slice aliases engine scratch and is valid until Release.
func (t *Transcoder) Finish() ([]byte, error) {
	if t.err != nil {
		return nil, t.err
	}
	t.reclaim()
	switch t.state {
	case stateBuffered:
		out, err := t.xc.TranscodeAppend(t.out, t.in)
		if err != nil {
			return nil, t.fail(err)
		}
		t.out = out
		t.state = stateDone
		return t.out, nil
	case stateCount:
		return nil, t.fail(fmt.Errorf("stream: %w in sequence count", wire.ErrShort))
	case stateElems:
		return nil, t.fail(fmt.Errorf("stream: %w with %d elements missing", wire.ErrShort, t.remaining))
	case stateDone:
		ret := t.out[t.taken:]
		t.taken = len(t.out)
		return ret, nil
	}
	return nil, t.fail(errors.New("stream: finish on failed transcoder"))
}

func (t *Transcoder) fail(err error) error {
	t.state = stateFailed
	t.err = err
	return err
}

// reclaim drops output the consumer has taken, keeping the unflushed
// tail at the front of the buffer (its length stays congruent to the
// absolute output offset mod 8 because takes are multiples of 8).
func (t *Transcoder) reclaim() {
	if t.taken == 0 {
		return
	}
	rest := copy(t.out, t.out[t.taken:])
	t.out = t.out[:rest]
	t.taken = 0
}

// advance runs the state machine over the current window.
func (t *Transcoder) advance() error {
	for {
		switch t.state {
		case stateCount:
			if len(t.in) < 4 {
				return nil
			}
			n := binary.LittleEndian.Uint32(t.in)
			if err := transcode.CheckSeqCount(uint64(n)); err != nil {
				return t.fail(err)
			}
			t.out = binary.LittleEndian.AppendUint32(t.out, n)
			t.off = 4
			t.remaining = int(n)
			t.state = stateElems
		case stateElems:
			if t.remaining == 0 {
				t.state = stateDone
				continue
			}
			out, off, done, err := t.xc.SeqStep(t.out, t.in, t.off, t.remaining)
			t.out, t.off = out, off
			t.remaining -= done
			if done > 0 {
				t.streamed = true
			}
			if err != nil {
				return t.fail(err)
			}
			if t.remaining == 0 {
				t.state = stateDone
				continue
			}
			// The next element is incomplete. It must fit the window cap
			// — an element is the unit of scratch, not the payload.
			if len(t.in)-t.off > t.max {
				return t.fail(fmt.Errorf("%w: single element over %d bytes", ErrTooLarge, t.max))
			}
			t.compactIn()
			return nil
		case stateDone:
			if extra := len(t.in) - t.off; extra > 0 {
				return t.fail(fmt.Errorf("stream: %d trailing bytes", extra))
			}
			return nil
		}
	}
}

// compactIn drops consumed input in multiples of 8 so in[0] keeps its
// alignment phase within the payload.
func (t *Transcoder) compactIn() {
	drop := t.off &^ 7
	if drop == 0 {
		return
	}
	rest := copy(t.in, t.in[drop:])
	t.in = t.in[:rest]
	t.off -= drop
}
