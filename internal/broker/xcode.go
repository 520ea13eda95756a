package broker

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/fingerprint"
	"repro/internal/plan"
	"repro/internal/transcode"
	"repro/internal/wire"
)

// xcodeEntry is a cached wire-transcoder outcome for one exact pair: the
// compiled transcoder when the fuser supports the plan, or the recorded
// refusal when it does not (xc nil, unsupported set), so the per-request
// fallback decision is a cache hit either way.
type xcodeEntry struct {
	relation    core.Relation
	explain     string
	xc          *transcode.Transcoder
	unsupported string
	warmed      bool
}

// transcoder returns the cached wire-transcoder entry for the exact
// pair, attempting compilation on a miss. A compile refused with
// transcode.ErrUnsupported is cached as a fallback entry, not returned
// as an error. warm marks a fill performed by the peer cache-warming
// protocol: flagged, counted as a warm fill, not pushed onward.
func (b *Broker) transcoder(ua, da, ub, db string, warm bool) (*xcodeEntry, bool, error) {
	_, _, pa, pb, err := b.prints(ua, da, ub, db)
	if err != nil {
		return nil, false, err
	}
	key := fingerprint.Pair(pa.Exact, pb.Exact)
	filled := false
	ent, cached, err := b.xcoders.do(key, func() (*xcodeEntry, error) {
		b.fillSem <- struct{}{}
		defer func() { <-b.fillSem }()
		start := time.Now()
		defer func() {
			b.compileNs.Add(time.Since(start).Nanoseconds())
			b.xcompiles.Add(1)
		}()
		done := func(e *xcodeEntry) *xcodeEntry {
			e.warmed = warm
			b.noteRecipe(KindTranscoder, key, ua, da, ub, db, nil)
			if warm {
				b.warmFills.Add(1)
			}
			filled = !warm
			return e
		}
		v, err := b.compareLocked(ua, da, ub, db)
		if err != nil {
			return nil, err
		}
		switch v.Relation {
		case core.RelNone:
			return done(&xcodeEntry{relation: v.Relation, explain: v.Explain}), nil
		case core.RelSubtypeBA:
			// Convert only runs A→B; no transcoder to build in this
			// direction, and the relation itself is what callers need.
			return done(&xcodeEntry{relation: v.Relation}), nil
		}
		p, err := plan.Build(v.Match)
		if err != nil {
			return nil, err
		}
		xc, err := transcode.Compile(p, v.Match.A, v.Match.B)
		if err != nil {
			if errors.Is(err, transcode.ErrUnsupported) {
				b.xunsupported.Add(1)
				return done(&xcodeEntry{relation: v.Relation, unsupported: err.Error()}), nil
			}
			return nil, err
		}
		return done(&xcodeEntry{relation: v.Relation, xc: xc}), nil
	})
	if filled {
		b.pushAfterFill(KindTranscoder, ua, da, ub, db)
	}
	return ent, cached, err
}

// ConvertRaw converts a CDR-encoded value of declaration A directly into
// CDR bytes of declaration B. Pairs whose coercion plan the wire
// transcoder supports are served bytes-to-bytes with no value tree;
// everything else falls back to decode→convert→encode through the
// cached tree converter with identical results.
func (b *Broker) ConvertRaw(ua, da, ub, db string, payload []byte) ([]byte, error) {
	b.inFlight.Add(1)
	defer b.inFlight.Add(-1)
	return b.convertRaw(nil, ua, da, ub, db, payload)
}

// convertRaw appends the converted bytes to dst (the batch op reuses one
// buffer across items; TranscodeAppend and MarshalAppend both restart
// CDR alignment at the append point, so each item is a standalone CDR
// value).
func (b *Broker) convertRaw(dst []byte, ua, da, ub, db string, payload []byte) ([]byte, error) {
	ent, cached, err := b.transcoder(ua, da, ub, db, false)
	if err != nil {
		return nil, err
	}
	switch ent.relation {
	case core.RelEquivalent, core.RelSubtypeAB:
	case core.RelSubtypeBA:
		return nil, fmt.Errorf("broker: %s/%s only converts from %s/%s (B is the subtype); swap the pair", ua, da, ub, db)
	default:
		return nil, fmt.Errorf("broker: declarations do not match:\n%s", ent.explain)
	}
	if ent.xc != nil {
		out, err := ent.xc.TranscodeAppend(dst, payload)
		if err != nil {
			return nil, err
		}
		if cached && ent.warmed {
			b.warmHits.Add(1)
		}
		b.fastConverts.Add(1)
		return out, nil
	}

	// Tree fallback: the pair converts, but its plan needs machinery the
	// fuser does not model (e.g. semantic hooks). The warm hit, if any,
	// is counted against the tier that actually serves the request.
	cent, ccached, err := b.converter(ua, da, ub, db, false)
	if err != nil {
		return nil, err
	}
	if ccached && cent.warmed {
		b.warmHits.Add(1)
	}
	mtA, err := b.Mtype(ua, da)
	if err != nil {
		return nil, err
	}
	mtB, err := b.Mtype(ub, db)
	if err != nil {
		return nil, err
	}
	in, err := wire.Unmarshal(mtA, payload)
	if err != nil {
		return nil, err
	}
	out, err := cent.conv.Convert(in)
	if err != nil {
		return nil, err
	}
	res, err := wire.NewEncoder(mtB).MarshalAppend(dst, out)
	if err != nil {
		return nil, err
	}
	b.treeConverts.Add(1)
	return res, nil
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
	b.inFlight.Add(1)
	defer b.inFlight.Add(-1)
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
