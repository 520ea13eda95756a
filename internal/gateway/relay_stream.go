package gateway

// Streaming relay lane: stream-opened calls whose request bodies
// outgrow Options.StreamThreshold relay chunk-by-chunk to the upstream
// instead of buffering, so payload size stops being bounded by gateway
// memory. By request lane (which rung a transcoder is on, and so whether
// it can stream, is package transcode's ladder table):
//
//	request lane               ≤ threshold        > threshold
//	passthrough (no lane)      buffered relay     raw chunk relay
//	SeqStreamable transcoder   buffered relay     stream.Transcoder relay
//	any other transcoder       buffered relay     buffered under payload cap
//
// "Buffered relay" is the ordinary relay path with its full resilience
// envelope — retries, hedging, admission, byte budgets. The streaming
// paths trade that envelope for constant memory: the upstream leg is the
// same call with kind resil.Stream, so the open is still retried and
// failed over, but once the first chunk is committed upstream a failure
// is terminal and surfaces typed.
//
// Reply legs are buffered under the payload budget in this revision;
// streaming replies ride the same frames and are a client-side change
// only.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/limits"
	"repro/internal/orb"
	"repro/internal/resil"
	"repro/internal/stream"
)

// DefaultStreamThreshold is the request size above which stream-opened
// calls relay chunk-by-chunk (1 MiB).
const DefaultStreamThreshold = 1 << 20

// relayBufPool recycles the chunk shuttle buffers the streaming relay
// reads client chunks into.
var relayBufPool = sync.Pool{New: func() any {
	b := make([]byte, 64<<10)
	return &b
}}

// frontStreamHandler returns the orb stream handler relaying one routed
// object key. Small requests — those that finish within the stream
// threshold — divert to the buffered relay path, so a client that
// always opens streams pays no resilience or tier penalty on ordinary
// payloads.
func (g *Gateway) frontStreamHandler(key string) orb.StreamHandler {
	return func(ctx context.Context, op uint32, in *orb.StreamReader, out *orb.StreamWriter) error {
		r := g.tab.Load().lookup(key, op)
		if r == nil {
			return fmt.Errorf("gateway: no route for object %q op %d", key, op)
		}
		// How much may buffer before the relay must stream: the
		// threshold when the request lane can stream, the full payload
		// budget when it cannot (a lane whose root is not a fused sequence
		// has no chunk-at-a-time form).
		canStream := g.opts.StreamThreshold >= 0 && (r.req == nil || r.req.SeqStreamable())
		limit := g.opts.StreamThreshold
		if !canStream {
			limit = g.budget.MaxBytes
		}
		prefix, eof, err := readUpTo(in, limit)
		defer putShuttles(prefix)
		if err != nil {
			atomic.AddInt64(&g.live.Canceled, 1)
			return err
		}
		if eof {
			reply, err := g.relay(ctx, r, bytes.Join(prefix, nil))
			if err != nil {
				return err
			}
			return writeReply(out, reply)
		}
		if !canStream {
			atomic.AddInt64(&r.live.Requests, 1)
			atomic.AddInt64(&r.live.BudgetRejects, 1)
			return limits.Exceededf("gateway: streamed request over %d bytes needs a streamable request lane", limit)
		}
		return g.relayStream(ctx, r, prefix, in, out)
	}
}

// readUpTo reads stream input into pooled shuttles, filling each, until
// EOF or more than limit bytes are pending, and reports whether the
// stream ended within the limit (one that ends past it reads as
// unfinished; the next Read finds the end). The prefix stays in its
// shuttles, which the caller puts back: a streamed call pushes it
// upstream shuttle by shuttle, and only the buffered path joins it.
func readUpTo(in *orb.StreamReader, limit int) ([][]byte, bool, error) {
	var prefix [][]byte
	for pending := 0; pending <= limit; {
		b := *relayBufPool.Get().(*[]byte)
		n, err := io.ReadFull(in, b)
		prefix = append(prefix, b[:n])
		pending += n
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return prefix, pending <= limit, nil
		}
		if err != nil {
			return prefix, false, err
		}
	}
	return prefix, false, nil
}

// putShuttles gives a prefix's shuttles back to relayBufPool, skipping
// those forwardRequest already gave back.
func putShuttles(prefix [][]byte) {
	for _, b := range prefix {
		if b = b[:cap(b)]; len(b) > 0 {
			relayBufPool.Put(&b)
		}
	}
}

// writeReply hands a buffered reply to the stream's send side.
func writeReply(out *orb.StreamWriter, reply []byte) error {
	if len(reply) == 0 {
		return nil
	}
	_, err := out.Write(reply)
	return err
}

// relayStream serves one over-threshold streamed call: admit, open the
// upstream stream (retried — nothing is committed yet), forward the
// buffered prefix plus every further chunk through the request lane,
// then buffer and transcode the reply leg under the payload budget.
func (g *Gateway) relayStream(ctx context.Context, r *route, prefix [][]byte, in *orb.StreamReader, out *orb.StreamWriter) error {
	if err := g.admit(r); err != nil {
		return err
	}
	defer g.chassis.Release()
	atomic.AddInt64(&r.live.Streamed, 1)

	up, err := r.up(ctx, r.rk, resil.Call{Key: r.upKey, Op: r.upOp, Kind: resil.Stream})
	if err != nil {
		return g.mapUpstreamErr(ctx, r, err)
	}
	sc := up.Stream
	var finalErr error
	defer func() { up.Done(finalErr) }()
	defer func() { _ = sc.Close() }()

	// Drain the reply leg concurrently with the request leg: an upstream
	// that converts chunk-at-a-time emits reply bytes while it is still
	// consuming the request, and letting them sit would deadlock against
	// flow control once they outgrow the reply window.
	type replyRes struct {
		body []byte
		err  error
	}
	repCh := make(chan replyRes, 1)
	go func() {
		body, err := readReplyCapped(sc, g.budget.MaxBytes)
		repCh <- replyRes{body, err}
	}()

	if err := g.forwardRequest(ctx, r, sc, prefix, in); err != nil {
		finalErr = err
		return err
	}

	res := <-repCh
	reply, err := res.body, res.err
	if err != nil {
		if errors.Is(err, limits.ErrBudget) {
			atomic.AddInt64(&r.live.BudgetRejects, 1)
			finalErr = err
			return err
		}
		finalErr = err
		return g.mapUpstreamErr(ctx, r, err)
	}
	if r.rep != nil {
		if reply, err = g.runLane(r, r.rep, nil, reply); err != nil {
			finalErr = err
			return fmt.Errorf("gateway: reply transcode: %w", err)
		}
	}
	return writeReply(out, reply)
}

// forwardRequest pushes the request body upstream: raw chunks for
// passthrough routes, through a pooled stream.Transcoder for fused
// streamable lanes. Client-leg read errors count as cancellations;
// upstream write errors map like any failed upstream leg.
func (g *Gateway) forwardRequest(ctx context.Context, r *route, sc *orb.StreamCall, prefix [][]byte, in *orb.StreamReader) error {
	var eng *stream.Transcoder
	var xns int64 // transcode time, excluding upstream writes
	if r.req != nil {
		eng = stream.New(r.req, stream.Options{MaxBuffer: g.budget.MaxBytes})
		defer eng.Release()
	}
	push := func(p []byte) error {
		if eng == nil {
			if len(p) == 0 {
				return nil
			}
			if _, err := sc.Write(p); err != nil {
				return g.mapUpstreamErr(ctx, r, err)
			}
			return nil
		}
		t0 := time.Now()
		err := eng.Push(p)
		outB := eng.Take()
		xns += time.Since(t0).Nanoseconds()
		if err != nil {
			return fmt.Errorf("gateway: request transcode: %w", err)
		}
		if len(outB) > 0 {
			if _, err := sc.Write(outB); err != nil {
				return g.mapUpstreamErr(ctx, r, err)
			}
		}
		return nil
	}
	// The prefix goes in the shuttles it was read into, like the chunks
	// after it: as one push it would grow the pooled engine's windows past
	// what Release keeps, and hold the first upstream write back a megabyte.
	// Each shuttle goes back once pushed, for the next call's prefix.
	for i, p := range prefix {
		err := push(p)
		putShuttles(prefix[i : i+1])
		prefix[i] = nil
		if err != nil {
			return err
		}
	}
	bp := relayBufPool.Get().(*[]byte)
	defer relayBufPool.Put(bp)
	for {
		n, err := in.Read(*bp)
		if n > 0 {
			if perr := push((*bp)[:n]); perr != nil {
				return perr
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			// The client leg died mid-stream: cancel, not upstream fault.
			atomic.AddInt64(&g.live.Canceled, 1)
			return err
		}
	}
	if eng != nil {
		t0 := time.Now()
		tail, err := eng.Finish()
		xns += time.Since(t0).Nanoseconds()
		atomic.AddInt64((*int64)(&r.live.TranscodeTotal), xns)
		if err != nil {
			return fmt.Errorf("gateway: request transcode: %w", err)
		}
		atomic.AddInt64(&r.live.FastTier, 1) // only a fused sequence lane streams
		if len(tail) > 0 {
			if _, err := sc.Write(tail); err != nil {
				return g.mapUpstreamErr(ctx, r, err)
			}
		}
	}
	if err := sc.CloseSend(); err != nil {
		return g.mapUpstreamErr(ctx, r, err)
	}
	return nil
}

// readReplyCapped buffers the upstream reply leg, failing with a typed
// budget error past the payload cap.
func readReplyCapped(sc *orb.StreamCall, maxBytes int) ([]byte, error) {
	bp := relayBufPool.Get().(*[]byte)
	defer relayBufPool.Put(bp)
	var reply []byte
	for {
		n, err := sc.Read(*bp)
		reply = append(reply, (*bp)[:n]...)
		if len(reply) > maxBytes {
			return nil, limits.Exceededf("gateway: reply payload of more than %d bytes", maxBytes)
		}
		if err == io.EOF {
			return reply, nil
		}
		if err != nil {
			return nil, err
		}
	}
}
