package orb

import (
	"context"
	"errors"
	"io"
	"sync"
)

// Streaming calls.
//
// A stream is an id-correlated call whose bodies travel as a chunk
// sequence instead of one buffered frame, so payloads are no longer
// bounded by MaxBody. The wire conversation:
//
//	client                                server
//	  ── kindStreamOpen(id, key, op, budget) ─▶   dispatch StreamHandler
//	  ── kindStreamChunk(id, bytes) … ───────▶    handler reads
//	  ◀─ kindStreamCredit(id, n) ── … ────────    as it consumes
//	  ── kindStreamClose(id, 0) ─────────────▶    request body EOF
//	  ◀─ kindStreamChunk(id, bytes) … ────────    handler writes reply
//	  ── kindStreamCredit(id, n) … ──────────▶    client reads
//	  ◀─ kindStreamClose(id, status) ─────────    call complete
//
// Flow control is credit-based per stream and direction: a sender starts
// with the protocol-fixed initialStreamCredit and may only put that many
// body bytes on the wire until the receiver grants more. Receivers top
// the sender up to streamWindow immediately on
// open and re-grant as the consumer drains, so a slow reader exerts
// backpressure all the way to the origin instead of buffering.
//
// Close-frame status: 0 is clean EOF; any other value is the request's
// error-frame code plus one (so codeErrGeneric's zero value stays
// distinguishable from success), with the message in the body. Whole-call
// failures before any reply chunk travel as ordinary kindError frames —
// clients see identical typed errors either way.
//
// A stream open carries the millisecond budget exactly like a request
// frame, passes the same gate and runs under the same goroutine body (see
// the package comment), and kindCancel aborts a stream by id.
//
// Both ends of a stream are one type, streamEnd; StreamReader and
// StreamWriter (server) and StreamCall (client) are views of it. Two
// asymmetries are the caller's decision, not a second implementation: a
// peer that breaks the stream protocol kills the connection on a server
// and only the call on a client; and only a client accepts an error
// frame on a stream id.

// streamWindow is the per-stream, per-direction flow-control window
// (1 MiB) every endpoint grants its peer: it bounds the bytes in flight
// per stream direction.
const streamWindow = 1 << 20

// initialStreamCredit is the credit a sender holds the instant a stream
// opens, before any grant arrives — small enough that a receiver with a
// tiny configured window is never flooded, large enough that short
// streams finish without waiting a round trip.
const initialStreamCredit = 64 << 10

// maxStreamChunk bounds the body of one chunk frame. Well under any
// sane MaxBody, so chunk frames pass every peer's frame limit.
const maxStreamChunk = 256 << 10

// ErrStreamProto reports a peer breaking the stream protocol: chunks past
// the granted credit, or a reply frame on a stream's id.
var ErrStreamProto = errors.New("orb: stream protocol violation")

// streamEnd is one end of a stream: a receive half (the peer's chunks
// and the credit granted to the peer) and a send half (the credit the
// peer granted), under one lock.
type streamEnd struct {
	id uint64
	// send is the sink this end's chunk, credit and close frames go to.
	send func(f frame) error

	mu       sync.Mutex
	readable sync.Cond // a Read waits here for a chunk or an end
	writable sync.Cond // a Write waits here for credit or an end

	q        [][]byte // chunks not yet read, none empty
	cur      []byte   // the chunk being read, whole; nil between chunks
	off      int      // how much of cur Read has copied out
	eof      bool     // clean close received
	rerr     error    // terminal failure of the receive half
	granted  int      // total credit granted to the peer (incl. initial)
	received int      // total body bytes delivered by the peer
	consumed int      // total body bytes handed to the consumer

	credit int   // bytes this end may still send
	werr   error // terminal failure of the send half
	sent   bool  // at least one chunk reached the wire
	closed bool  // this end's clean close went out
}

// newStreamEnd returns an end holding the protocol's initial credit in
// both directions. Every chunk it receives came from the body pool, and
// goes back to it whole once Read has copied it out.
func newStreamEnd(id uint64, send func(frame) error) *streamEnd {
	e := &streamEnd{id: id, send: send, granted: initialStreamCredit, credit: initialStreamCredit}
	e.readable.L, e.writable.L = &e.mu, &e.mu
	return e
}

func (e *streamEnd) grant(n int) {
	if n > 0 {
		_ = e.send(frame{kind: kindStreamCredit, id: e.id, op: uint32(n)})
	}
}

// topUp grants the peer the rest of streamWindow beyond the
// protocol-fixed initial credit, once at stream setup.
func (e *streamEnd) topUp() {
	e.mu.Lock()
	extra := max(streamWindow-e.granted, 0)
	e.granted += extra
	e.mu.Unlock()
	e.grant(extra)
}

// onFrame applies one inbound chunk, close or credit frame, taking
// ownership of its body. It reports false when the peer overran its
// credit; what dies then — the connection or the call — is the caller's
// decision.
func (e *streamEnd) onFrame(f frame) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	switch f.kind {
	case kindStreamChunk:
		e.received += len(f.body)
		if e.received > e.granted {
			return false
		}
		if e.rerr == nil && !e.eof && len(f.body) > 0 {
			e.q = append(e.q, f.body)
			e.readable.Broadcast()
			return true
		}
		// An empty chunk, or a late one after a terminal state, is dropped.
	case kindStreamClose:
		if f.op == 0 {
			e.eof = true
			e.readable.Broadcast()
		} else {
			e.failLocked(errFromFrame(frame{op: f.op - 1, body: f.body}))
		}
	case kindStreamCredit:
		e.credit += int(f.op)
		e.writable.Broadcast()
	}
	putBodyBuf(f.body)
	return true
}

// fail ends both directions: blocked reads and writes return err, and
// chunks nobody consumed are released.
func (e *streamEnd) fail(err error) {
	e.mu.Lock()
	e.failLocked(err)
	e.mu.Unlock()
}

func (e *streamEnd) failLocked(err error) {
	if e.rerr == nil {
		e.rerr = err
	}
	for _, b := range e.q {
		putBodyBuf(b)
	}
	putBodyBuf(e.cur)
	e.q, e.cur, e.off = nil, nil, 0
	if e.werr == nil {
		e.werr = err
	}
	e.readable.Broadcast()
	e.writable.Broadcast()
}

// failSend ends the send half only: reads still drain what arrived.
func (e *streamEnd) failSend(err error) {
	e.mu.Lock()
	if e.werr == nil {
		e.werr = err
	}
	e.writable.Broadcast()
	e.mu.Unlock()
}

// Finished reports a terminal receive state: the peer's clean close or a
// failure.
func (e *streamEnd) Finished() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.rerr != nil || e.eof
}

// Read implements io.Reader over the peer's chunks, granting credit back
// as bytes are consumed (batched to a quarter window so credit frames
// stay rare). It returns io.EOF at the peer's clean close and the
// stream's typed error if it died first.
func (e *streamEnd) Read(p []byte) (int, error) {
	e.mu.Lock()
	for {
		if e.cur == nil && len(e.q) > 0 {
			e.cur, e.off = e.q[0], 0
			e.q[0] = nil
			e.q = e.q[1:]
		}
		if e.cur != nil {
			n := copy(p, e.cur[e.off:])
			if e.off += n; e.off == len(e.cur) {
				putBodyBuf(e.cur)
				e.cur = nil
			}
			e.consumed += n
			var due int
			if e.rerr == nil && e.granted-e.consumed < streamWindow-streamWindow/4 {
				due = streamWindow - (e.granted - e.consumed)
				e.granted += due
			}
			e.mu.Unlock()
			e.grant(due)
			return n, nil
		}
		if e.rerr != nil || e.eof {
			err := e.rerr
			if err == nil {
				err = io.EOF
			}
			e.mu.Unlock()
			return 0, err
		}
		e.readable.Wait()
	}
}

// reserve blocks until at least one byte of credit is available and
// claims min(want, credit) of it.
func (e *streamEnd) reserve(want int) (int, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for {
		switch {
		case e.werr != nil:
			return 0, e.werr
		case e.closed:
			return 0, errors.New("orb: write on closed stream")
		case e.credit > 0:
			n := min(want, e.credit)
			e.credit -= n
			e.sent = true
			return n, nil
		}
		e.writable.Wait()
	}
}

// Write implements io.Writer: p goes out as chunk frames of at most
// maxStreamChunk bytes, blocking while the peer's credit is exhausted.
func (e *streamEnd) Write(p []byte) (int, error) {
	total := 0
	for len(p) > 0 {
		n, err := e.reserve(min(len(p), maxStreamChunk))
		if err == nil {
			if err = e.send(frame{kind: kindStreamChunk, id: e.id, body: p[:n]}); err != nil {
				e.failSend(err)
			}
		}
		if err != nil {
			return total, err
		}
		total += n
		p = p[n:]
	}
	return total, nil
}

// CloseSend marks the end of this end's data with a clean close, once,
// unless the send half has already failed.
func (e *streamEnd) CloseSend() error {
	e.mu.Lock()
	skip := e.closed || e.werr != nil
	e.closed = true
	e.mu.Unlock()
	if skip {
		return nil
	}
	return e.send(frame{kind: kindStreamClose, id: e.id})
}

// wrote reports whether any chunk of this end's reached the wire.
func (e *streamEnd) wrote() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.sent
}

// StreamReader is the request-body reader handed to a StreamHandler: an
// io.Reader over the client's chunks that returns io.EOF at the client's
// clean close and a typed error if the stream dies mid-body.
type StreamReader struct{ end *streamEnd }

// Read implements io.Reader.
func (r *StreamReader) Read(p []byte) (int, error) { return r.end.Read(p) }

// StreamWriter is the reply-body writer handed to a StreamHandler:
// chunks go to the client under its flow-control credit.
type StreamWriter struct{ end *streamEnd }

// Write implements io.Writer, blocking while the client's credit is
// exhausted.
func (w *StreamWriter) Write(p []byte) (int, error) { return w.end.Write(p) }

// StreamHandler serves one streaming call: read the request body from
// in (io.EOF marks its end), write the reply body to out. A nil return
// closes the reply stream cleanly; an error is delivered to the client
// as a typed error (before any reply chunk) or a mid-stream abort
// (after). ctx carries the propagated budget and is canceled by client
// cancel frames and connection teardown; like in and out it is dead once
// the handler returns.
type StreamHandler func(ctx context.Context, op uint32, in *StreamReader, out *StreamWriter) error

// errStreamClosed is the terminal state of a StreamCall released by its
// owner before the call finished.
var errStreamClosed = errors.New("orb: stream call closed")

// StreamCall is one streaming invocation from the client side: Write the
// request body in any splits, CloseSend to mark its end, Read the reply
// body to io.EOF, then Close. A handler may emit reply chunks while the
// request body is still arriving, so callers moving more than a window's
// worth in both directions must Read concurrently with their Writes —
// writing everything first deadlocks against flow control once the
// unread reply exhausts its credit.
type StreamCall struct {
	c   *Client
	ctx context.Context
	// end carries the call: its Read, Write, CloseSend and Finished are
	// the call's.
	*streamEnd

	closeOnce sync.Once
	unwatch   func() bool // stops watching ctx
}

// OpenStream starts a streaming call to the object's op. The context
// governs the whole call: its budget travels in the open frame, and its
// cancellation aborts the stream (a cancel frame stops the server). The
// caller must Close the returned call.
func (c *Client) OpenStream(ctx context.Context, key string, op uint32) (*StreamCall, error) {
	if err := ctx.Err(); err != nil {
		return nil, ctxErr(err)
	}
	sc := &StreamCall{c: c, ctx: ctx}
	sc.streamEnd = newStreamEnd(0, sc.sendWire)
	id, err := c.register(waiter{sc: sc})
	if err != nil {
		return nil, err
	}
	fr := frame{kind: kindStreamOpen, id: id, key: key, op: op, budget: budgetMillis(ctx)}
	if err := c.write(ctx, fr); err != nil {
		c.forget(id)
		return nil, err
	}
	sc.unwatch = context.AfterFunc(ctx, func() {
		sc.fail(ctxErr(ctx.Err()))
		c.sendCancel(id)
	})
	// Grant the server's reply direction this client's full window.
	sc.topUp()
	return sc, nil
}

// sendWire is the stream end's sink. Chunks and the close are bounded by
// the call's context; a credit grant is not, because it comes from Read
// and must still flow while a caller drains a reply past its write
// deadline.
func (sc *StreamCall) sendWire(f frame) error {
	ctx := sc.ctx
	if f.kind == kindStreamCredit {
		ctx = context.Background()
	}
	return sc.c.write(ctx, f)
}

// onFrame routes one frame carrying the call's id from the read loop. A
// client also accepts an error frame (the whole call failed before any
// reply chunk). A server that overruns its credit or sends a reply frame
// on the stream's id costs it this call, not the connection other calls
// share.
func (sc *StreamCall) onFrame(f frame) {
	switch {
	case f.kind == kindError:
		sc.fail(errFromFrame(f))
	case f.kind == kindReply || !sc.streamEnd.onFrame(f):
		sc.fail(ErrStreamProto)
	}
}

// Close releases the call. If the call has not finished, the server is
// sent a best-effort cancel and local waiters fail with a typed error.
func (sc *StreamCall) Close() error {
	sc.closeOnce.Do(func() {
		sc.unwatch()
		done := sc.Finished()
		live := sc.c.forget(sc.id) // false on a dead connection
		if done {
			// Reads keep returning the reply's end; only writes are over.
			sc.failSend(errStreamClosed)
			return
		}
		sc.fail(errStreamClosed)
		if live {
			go sc.c.sendCancel(sc.id)
		}
	})
	return nil
}
