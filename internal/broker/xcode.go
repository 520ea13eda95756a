package broker

import (
	"fmt"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/transcode"
)

// xcodeEntry is a cached wire transcoder for one exact pair: the fused
// program, or the tree rung when the fuser refused the plan (xc.Refusal
// says why), so which tier serves the pair is decided once, at the fill.
// xc is nil when the pair does not convert A→B.
type xcodeEntry struct {
	pairEntry
	xc *transcode.Transcoder
}

// transcoder returns the cached wire-transcoder entry for the exact
// pair, assembling it on a miss.
func (b *Broker) transcoder(ua, da, ub, db string, warm bool) (*xcodeEntry, bool, error) {
	return fillPair(b, b.xcoders, KindTranscoder, &b.live.XcodeCompiles, ua, da, ub, db, warm, buildTranscoder)
}

func buildTranscoder(b *Broker, v *core.Verdict, pe pairEntry) (*xcodeEntry, error) {
	ent := &xcodeEntry{pairEntry: pe}
	if !pe.converts() {
		return ent, nil
	}
	var err error
	if ent.xc, err = b.sess.BuildTranscoder(v); err == nil && ent.xc.Refusal() != "" {
		atomic.AddInt64(&b.live.XcodeUnsupported, 1)
	}
	return ent, err
}

// served counts one conversion against the tier that ran it, and as a
// warm hit when the entry it ran from was cached and a peer's.
func (b *Broker) served(ent *xcodeEntry, cached bool) {
	if cached && ent.warmed {
		atomic.AddInt64(&b.live.WarmHits, 1)
	}
	if ent.xc.Refusal() == "" {
		atomic.AddInt64(&b.live.FastConverts, 1)
	} else {
		atomic.AddInt64(&b.live.TreeConverts, 1)
	}
}

// ConvertRaw converts a CDR-encoded value of declaration A directly into
// CDR bytes of declaration B through the pair's cached transcoder: bytes
// to bytes with no value tree when the plan fused, decode→convert→encode
// with identical results when it did not.
func (b *Broker) ConvertRaw(ua, da, ub, db string, payload []byte) ([]byte, error) {
	atomic.AddInt64(&b.live.InFlight, 1)
	defer atomic.AddInt64(&b.live.InFlight, -1)
	return b.convertRaw(nil, ua, da, ub, db, payload)
}

// convertRaw appends the converted bytes to dst (the batch op reuses one
// buffer across items; TranscodeAppend restarts CDR alignment at the
// append point, so each item is a standalone CDR value).
func (b *Broker) convertRaw(dst []byte, ua, da, ub, db string, payload []byte) ([]byte, error) {
	ent, cached, err := b.transcoder(ua, da, ub, db, false)
	if err != nil {
		return nil, err
	}
	if err := ent.gate(ua, da, ub, db); err != nil {
		return nil, err
	}
	out, err := ent.xc.TranscodeAppend(dst, payload)
	if err != nil {
		return nil, err
	}
	b.served(ent, cached)
	return out, nil
}

// MaxBatchItems bounds the number of payloads one OpConvertBatch request
// may carry. The batch is admitted as a single request, so the cap keeps
// one client from smuggling unbounded work past admission control.
const MaxBatchItems = 4096

// ConvertRawBatch converts a slice of CDR-encoded values of declaration
// A into CDR bytes of declaration B, resolving the pair's execution tier
// once for the whole batch. Item i of the result corresponds to payload
// i; the first failing item aborts the batch with its error.
func (b *Broker) ConvertRawBatch(ua, da, ub, db string, payloads [][]byte) ([][]byte, error) {
	atomic.AddInt64(&b.live.InFlight, 1)
	defer atomic.AddInt64(&b.live.InFlight, -1)
	if len(payloads) > MaxBatchItems {
		return nil, fmt.Errorf("broker: batch of %d exceeds %d items", len(payloads), MaxBatchItems)
	}
	out := make([][]byte, len(payloads))
	var buf []byte
	for i, p := range payloads {
		mark := len(buf)
		var err error
		buf, err = b.convertRaw(buf, ua, da, ub, db, p)
		if err != nil {
			return nil, fmt.Errorf("broker: batch item %d: %w", i, err)
		}
		out[i] = buf[mark:len(buf):len(buf)]
	}
	return out, nil
}
