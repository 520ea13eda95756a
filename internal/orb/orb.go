// Package orb is the network runtime under Mockingbird's network-enabled
// stubs: a small GIOP-style protocol over TCP with request/reply
// correlation, one-way messages (the messaging model of the §5
// collaborative-objects case study) and credit-controlled streams
// (stream.go). Payloads are opaque bytes; the typed layer (core) marshals
// them with package wire.
//
// Frame format (all integers little-endian):
//
//	magic   [4]byte "MBRD"
//	version u8 (always 3)
//	kind    u8 (request / reply / oneway / error / cancel / stream-open /
//	            stream-chunk / stream-close / stream-credit)
//	id      u64 (call correlation; 0 for oneway)
//	keyLen  u32
//	budget  u32 (request and stream-open frames only: remaining time
//	             budget in milliseconds; 0 = none)
//	key     [keyLen]byte   (object key; empty on replies)
//	op      u32            (method alternative; error code on error
//	                        frames, status on stream-close frames, bytes on
//	                        stream-credit)
//	bodyLen u32, body [bodyLen]byte
//
// There is one protocol version and no negotiation: every peer is built
// from this tree, so a connection is ready the moment it is accepted, and
// a frame with any other version byte ends it.
//
// # One dispatch path
//
// On a server connection a request, a oneway and a stream open pass one
// gate (serverConn.admit), in this order: a budget already spent when the
// frame finished arriving is shed with ErrExpired, before it can count
// against capacity; then the connection's concurrency cap (ErrOverloaded);
// then the handler lookup; then the id must not name a call still live on
// the connection. A refusal is one error frame from one writer (replyErr;
// a oneway has no reply to carry it and is dropped) and costs no
// goroutine, context or in-flight slot.
//
// An admitted call is one record in the connection's one table, id →
// {context, stream end or nil}. Cancel, chunk, close and credit frames
// find their call there, and when the read loop ends the table is walked
// once (serverConn.teardown): connection death cancels every call;
// Shutdown lets a unary call finish and reply but fails a live stream at
// once, because a stream cannot complete without the read loop.
//
// Every call runs under one goroutine body (serverConn.worker), which owns
// panic isolation, the remap of a handler's deadline error to ErrExpired
// when the propagated budget ran out under it, and the terminal frame: a
// reply or a clean stream close; on failure an error frame, or a close
// with a status once a reply chunk has gone out. The call leaves the
// table before that frame is written, so a peer that has seen a call end
// finds its id and its slot free. The worker then parks on its connection
// and takes the next call the read loop admits; a goroutine is started
// only when none is parked, so a caller that waits for each reply is
// served on one stack, grown once, for its connection's life. At most
// maxParkedWorkers stay parked; all end in teardown. The read loop never
// runs a handler: it must keep reading cancel frames and pipelined calls.
//
// Handler contract: the request body and the context are recycled when
// the handler returns. A handler must not retain either, anything
// aliasing the body, or the context's Done channel; one that detaches
// work copies the body first. Returning the body as the reply is fine.
//
// The client mirrors this with one table (Client.pending): a unary call
// waits on a channel and resolves on the first frame carrying its id; a
// stream call holds the same stream-end type the server does and stays
// until it is closed.
//
// # One read per frame
//
// Both read loops decode through one buffer per connection (frameReader):
// a small frame costs one read(2) however many fields it has, and a body
// is read straight into place past what arrived with its header. So a
// frame's budget clock (frame.hdrAt) starts when its header is decoded —
// for a frame buffered behind others, later than its bytes arrived by
// what the read loop spent on those — and Shutdown, which ends a read
// loop by failing its next read, still serves the whole frames the loop
// had buffered (they were read, like any frame a moment earlier) and
// drops a partial one with the connection.
package orb

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"net"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/clock"
)

// Message kinds.
const (
	kindRequest = 1
	kindReply   = 2
	kindOneway  = 3
	kindError   = 4
	// 5 is reserved: it was a version hello.
	kindCancel = 6 // client → server; id names the in-flight call to abort
	// Stream frames (see stream.go).
	kindStreamOpen   = 7  // client → server; op is the method, body empty
	kindStreamChunk  = 8  // either direction; body is one payload chunk
	kindStreamClose  = 9  // either direction; op is a status
	kindStreamCredit = 10 // either direction; op grants op bytes of credit
)

const magic = "MBRD"

// protoVersion is the one protocol version, written in every frame's
// header; a reader rejects any other.
const protoVersion = 3

// Default frame limits.
const (
	// DefaultMaxBody bounds message bodies (16 MiB).
	DefaultMaxBody = 16 << 20
	// DefaultMaxKey bounds object keys (4 KiB).
	DefaultMaxKey = 4096
	// DefaultMaxPerConn bounds concurrent requests dispatched per server
	// connection, so one client cannot monopolize the daemon by pipelining
	// an unbounded number of requests.
	DefaultMaxPerConn = 1024
)

// Error-frame codes ride in the op field of error frames, so clients
// rebuild typed errors without parsing text. An unknown code, or an older
// server's uncoded denial, reads as a plain RemoteError: upgrade servers
// before the clients that fail over on their denials.
const (
	codeErrGeneric     = 0 // ordinary handler error → RemoteError
	codeErrPanic       = 1 // handler panicked → ErrServerPanic
	codeErrOverloaded  = 2 // admission control shed the request → ErrOverloaded
	codeErrExpired     = 3 // the request's time budget was already spent → ErrExpired
	codeErrUnavailable = 4 // this server does not serve the request's object → ErrUnavailable
)

// ErrFrameTooLarge is returned (wrapped, with detail) when a frame's body
// or object key exceeds the endpoint's configured limit, on either the
// writing or the reading side.
var ErrFrameTooLarge = errors.New("orb: frame exceeds limit")

// errVersion is the read error of a frame whose version byte is not
// protoVersion; the connection it arrived on ends.
var errVersion = errors.New("orb: unsupported protocol version")

// Typed transport errors. Resilience layers (internal/resil) classify on
// these: ErrConnClosed is a connection-level failure and safe to retry
// against an idempotent service; ErrDeadline and ErrCanceled mean the
// call's own context expired and the overall budget is spent.
var (
	// ErrConnClosed reports that the connection died (locally or
	// remotely) before the call completed. All in-flight Invokes on a
	// dying connection fail with an error wrapping ErrConnClosed.
	ErrConnClosed = errors.New("orb: connection closed")
	// ErrDeadline reports that the call's context deadline expired.
	ErrDeadline = errors.New("orb: call deadline exceeded")
	// ErrCanceled reports that the call's context was canceled.
	ErrCanceled = errors.New("orb: call canceled")
	// ErrDial wraps connection-establishment failures, so callers can
	// distinguish "could not reach the server" from errors the server
	// itself returned.
	ErrDial = errors.New("orb: dial")
	// ErrServerPanic reports that the remote handler panicked while
	// serving the call. The server recovered and the connection is still
	// healthy, but the call must not be blindly retried: the panic is
	// most likely deterministic for the given input.
	ErrServerPanic = errors.New("orb: handler panicked")
	// ErrOverloaded reports that the server shed the call under admission
	// control instead of queuing it. The request was never dispatched, so
	// retrying after a backoff is safe and expected.
	ErrOverloaded = errors.New("orb: server overloaded")
	// ErrExpired reports that the request's propagated time budget was
	// already spent when the server (or a relay on the path) looked at
	// it: the caller has given up, so no work was started on its behalf.
	// Distinct from ErrOverloaded — the server had capacity; the caller
	// ran out of time. Retrying without a fresh budget is pointless.
	ErrExpired = errors.New("orb: request budget expired")
	// ErrUnavailable reports that the server does not serve what the
	// request names (no such object, state not loaded): another server may.
	ErrUnavailable = errors.New("orb: not served here")
)

// codedErrs is the typed error each non-generic error-frame code stands
// for, indexed by code.
var codedErrs = [...]error{codeErrPanic: ErrServerPanic, codeErrOverloaded: ErrOverloaded, codeErrExpired: ErrExpired, codeErrUnavailable: ErrUnavailable}

// errFrameCode maps a handler error to its error-frame code and message
// body. The sentinel's own prefix is trimmed from the body: the client
// re-wraps the body in the same sentinel, and keeping the prefix would
// double it.
func errFrameCode(err error) (uint32, []byte) {
	for code, sentinel := range codedErrs {
		if sentinel != nil && errors.Is(err, sentinel) {
			return uint32(code), []byte(strings.TrimPrefix(err.Error(), sentinel.Error()+": "))
		}
	}
	return codeErrGeneric, []byte(err.Error())
}

// errFromFrame reconstructs the typed error an error frame carries.
func errFromFrame(f frame) error {
	if f.op != codeErrGeneric && int(f.op) < len(codedErrs) {
		return fmt.Errorf("%w: %s", codedErrs[f.op], f.body)
	}
	return &RemoteError{Msg: string(f.body)}
}

// RemoteError is an error returned by the remote handler (as opposed to a
// transport failure).
type RemoteError struct {
	Msg string
}

func (e *RemoteError) Error() string { return "orb: remote: " + e.Msg }

// ctxErr maps a context error to the orb typed equivalent.
func ctxErr(err error) error {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return ErrDeadline
	case errors.Is(err, context.Canceled):
		return ErrCanceled
	}
	return err
}

// budgetKey carries an explicit wire budget through a context.
type budgetKey struct{}

// ContextWithBudget returns a context whose orb calls carry an explicit
// wire budget of d, independent of the context's own deadline. Clients
// use it to give downstream hops less time than they are willing to wait
// locally (e.g. `mbird remote -budget`), which is how a caller observes
// the server-side ErrExpired shed instead of its own local timeout.
func ContextWithBudget(ctx context.Context, d time.Duration) context.Context {
	return context.WithValue(ctx, budgetKey{}, d)
}

// budgetMillis derives the wire budget for a request from ctx: an
// explicit ContextWithBudget value wins, else the remaining time to the
// context deadline, else 0 (no budget). Positive budgets round up to at
// least 1ms so "a little time left" never encodes as "no budget".
func budgetMillis(ctx context.Context) uint32 {
	if v, ok := ctx.Value(budgetKey{}).(time.Duration); ok && v > 0 {
		return clampMillis(v)
	}
	if d, ok := ctx.Deadline(); ok {
		return clampMillis(time.Until(d))
	}
	return 0
}

// clampMillis rounds d up to whole milliseconds within [1, MaxUint32].
func clampMillis(d time.Duration) uint32 {
	ms := (d + time.Millisecond - 1) / time.Millisecond
	return uint32(min(max(ms, 1), math.MaxUint32))
}

// Limits configures per-endpoint frame limits. The zero value selects the
// defaults.
type Limits struct {
	// MaxBody bounds request/reply body sizes in bytes.
	MaxBody int
	// MaxKey bounds object key lengths in bytes.
	MaxKey int
	// MaxPerConn bounds concurrent requests dispatched per server
	// connection; excess requests are answered immediately with
	// ErrOverloaded (oneways are dropped). Negative means unlimited.
	// Ignored by clients.
	MaxPerConn int
	clk        clock.Clock // stamps frames, times budgets; tests set a fake
}

func (l Limits) withDefaults() Limits {
	if l.MaxBody <= 0 {
		l.MaxBody = DefaultMaxBody
	}
	if l.MaxKey <= 0 {
		l.MaxKey = DefaultMaxKey
	}
	if l.MaxPerConn == 0 {
		l.MaxPerConn = DefaultMaxPerConn
	} else if l.MaxPerConn < 0 {
		l.MaxPerConn = math.MaxInt
	}
	if l.clk == nil {
		l.clk = clock.Real
	}
	return l
}

// Option configures a Server or Client at construction.
type Option func(*Limits)

// WithMaxBody bounds frame bodies for the endpoint.
func WithMaxBody(n int) Option { return func(l *Limits) { l.MaxBody = n } }

// WithMaxKey bounds object keys for the endpoint.
func WithMaxKey(n int) Option { return func(l *Limits) { l.MaxKey = n } }

// WithMaxPerConn bounds concurrent requests per server connection;
// negative means unlimited.
func WithMaxPerConn(n int) Option { return func(l *Limits) { l.MaxPerConn = n } }

// WithBufPooling does nothing: every server recycles request bodies and
// contexts (the package comment has the handler contract). It remains
// only because the benchmark harness still passes it.
func WithBufPooling() Option { return func(*Limits) {} }

func applyOptions(opts []Option) Limits {
	var l Limits
	for _, o := range opts {
		o(&l)
	}
	return l.withDefaults()
}

// budgeted reports whether frames of a kind carry the budget field.
func budgeted(kind byte) bool { return kind == kindRequest || kind == kindStreamOpen }

type frame struct {
	kind byte
	id   uint64
	key  string
	op   uint32
	body []byte
	// budget is the remaining time budget in milliseconds (request and
	// stream-open frames only; 0 = none).
	budget uint32
	// hdrAt is when the read side decoded the fixed header. Budgets anchor
	// here: a body that trickles in past one is expired before dispatch.
	hdrAt time.Time
}

// frameBufPool recycles the scratch buffers frames are serialized into
// before the single conn.Write. Writes are synchronous, so the buffer
// can be returned as soon as Write does. Buffers that grew past
// maxPooledFrameBuf (a client streamed one huge body) are dropped
// instead of pinning megabytes in the pool.
var frameBufPool = sync.Pool{New: newPooledBuf}

func newPooledBuf() any {
	b := make([]byte, 0, 512)
	return &b
}

const maxPooledFrameBuf = 1 << maxBodyClass

// writevThreshold is the body size past which a frame is written as a
// scatter-gather pair (header buffer + body, one writev on a TCP conn)
// instead of copied into one contiguous buffer first. Small bodies stay
// on the copy path: one syscall on exactly one buffer beats two iovecs.
const writevThreshold = 1024

func writeFrame(w io.Writer, f frame, lim Limits) (int, error) {
	if len(f.body) > lim.MaxBody {
		return 0, fmt.Errorf("%w: body of %d bytes exceeds %d", ErrFrameTooLarge, len(f.body), lim.MaxBody)
	}
	if len(f.key) > lim.MaxKey {
		return 0, fmt.Errorf("%w: object key of %d bytes exceeds %d", ErrFrameTooLarge, len(f.key), lim.MaxKey)
	}
	bp := frameBufPool.Get().(*[]byte)
	buf := (*bp)[:0]
	buf = append(buf, magic...)
	buf = append(buf, protoVersion, f.kind)
	buf = binary.LittleEndian.AppendUint64(buf, f.id)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(f.key)))
	if budgeted(f.kind) {
		buf = binary.LittleEndian.AppendUint32(buf, f.budget)
	}
	buf = append(buf, f.key...)
	buf = binary.LittleEndian.AppendUint32(buf, f.op)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(f.body)))
	var n int
	var err error
	if len(f.body) >= writevThreshold {
		bufs := net.Buffers{buf, f.body}
		var nn int64
		nn, err = bufs.WriteTo(w)
		n = int(nn)
	} else {
		buf = append(buf, f.body...)
		n, err = w.Write(buf)
	}
	if cap(buf) <= maxPooledFrameBuf {
		*bp = buf
		frameBufPool.Put(bp)
	}
	return n, err
}

// Read bodies pool by size class, a power of two from 512 bytes to
// maxPooledFrameBuf, so a small request never pins a chunk-sized buffer
// and a 32 KiB chunk never holds a 256 KiB one. A server gives a request
// body back after its terminal frame; a stream end gives a chunk back
// whole once Read has copied it out. A chunk class, 16 KiB up to
// maxStreamChunk, keeps at most one streamWindow of spares: a sync.Pool
// empties only as the collector runs, so a process that stops making
// garbage would hold every chunk it ever pooled as resident memory. The
// other classes keep sync.Pool's per-P caches: the small ones serve the
// unary path, and a body past maxStreamChunk is a one-off request that a
// spare would pin.
const (
	minBodyClass  = 9  // log2 of the smallest class, 512 bytes
	minChunkClass = 14 // 16 KiB
	maxChunkClass = 18 // maxStreamChunk
	maxBodyClass  = 20 // maxPooledFrameBuf
)

var (
	bodyPools   [maxBodyClass - minBodyClass + 1]sync.Pool // chunk classes unused
	chunkBodies [maxChunkClass - minChunkClass + 1]chan []byte
)

func init() {
	for i := range chunkBodies {
		chunkBodies[i] = make(chan []byte, streamWindow>>(minChunkClass+i))
	}
}

// getBodyBuf returns a buffer of exactly n bytes with its class's
// capacity; an empty body takes none, one past the classes its own.
func getBodyBuf(n int) []byte {
	if n == 0 || n > maxPooledFrameBuf {
		return make([]byte, n)
	}
	c := max(bits.Len(uint(n-1)), minBodyClass)
	if c < minChunkClass || c > maxChunkClass {
		if bp, _ := bodyPools[c-minBodyClass].Get().(*[]byte); bp != nil {
			return (*bp)[:n]
		}
	} else {
		select {
		case b := <-chunkBodies[c-minChunkClass]:
			return b[:n]
		default:
		}
	}
	return make([]byte, n, 1<<c)
}

// putBodyBuf recycles a buffer handed out by getBodyBuf. One whose
// capacity is not a class size was not, and is dropped.
func putBodyBuf(b []byte) {
	n := cap(b)
	if n < 1<<minBodyClass || n > maxPooledFrameBuf || n&(n-1) != 0 {
		return
	}
	if c := bits.Len(uint(n)) - 1; c < minChunkClass || c > maxChunkClass {
		bodyPools[c-minBodyClass].Put(&b)
	} else {
		select {
		case chunkBodies[c-minChunkClass] <- b:
		default:
		}
	}
}

// readBufSize holds a whole frame with a body under writevThreshold.
const readBufSize = 4096

// frameReader reads frames from one connection through one buffer,
// interning the (almost always identical) object key across frames so the
// steady-state read path allocates only the body — and a server's (pool)
// not even that: its bodies come from the body pool. A client's are
// allocated because callers keep replies, except a stream chunk's, which
// only a stream end's Read ever copies out. A body as large as the buffer
// is never copied through it whole. It is owned by a single reader
// goroutine and must not be shared.
type frameReader struct {
	conn    io.Reader
	r       *bufio.Reader // over conn
	lim     Limits
	pool    bool
	head    [18]byte
	rest    []byte // the header past head: [budget,] key, op, body length
	lastKey string
}

func newFrameReader(r io.Reader, lim Limits, pool bool) *frameReader {
	return &frameReader{conn: r, r: bufio.NewReaderSize(r, readBufSize), lim: lim, pool: pool}
}

func (fr *frameReader) read() (frame, error) {
	var f frame
	head := fr.head[:]
	if _, err := io.ReadFull(fr.r, head); err != nil {
		return f, err
	}
	f.hdrAt = fr.lim.clk.Now()
	if string(head[:4]) != magic {
		return f, fmt.Errorf("orb: bad magic %q", head[:4])
	}
	if ver := head[4]; ver != protoVersion {
		return f, fmt.Errorf("%w %d", errVersion, ver)
	}
	f.kind = head[5]
	f.id = binary.LittleEndian.Uint64(head[6:])
	keyLen := binary.LittleEndian.Uint32(head[14:])
	if uint64(keyLen) > uint64(fr.lim.MaxKey) {
		return f, fmt.Errorf("%w: object key of %d bytes exceeds %d", ErrFrameTooLarge, keyLen, fr.lim.MaxKey)
	}
	hasBudget := budgeted(f.kind)
	restLen := int(keyLen) + 8
	if hasBudget {
		restLen += 4
	}
	fr.rest = slices.Grow(fr.rest[:0], restLen)[:restLen]
	rest := fr.rest
	if _, err := io.ReadFull(fr.r, rest); err != nil {
		return f, err
	}
	if hasBudget {
		f.budget, rest = binary.LittleEndian.Uint32(rest), rest[4:]
	}
	if key := rest[:keyLen]; keyLen > 0 {
		// Connections overwhelmingly invoke one object; reuse the interned
		// string instead of allocating an identical one per frame.
		if fr.lastKey != string(key) {
			fr.lastKey = string(key)
		}
		f.key = fr.lastKey
	}
	f.op = binary.LittleEndian.Uint32(rest[keyLen:])
	bodyLen := binary.LittleEndian.Uint32(rest[keyLen+4:])
	if uint64(bodyLen) > uint64(fr.lim.MaxBody) {
		return f, fmt.Errorf("%w: body of %d bytes exceeds %d", ErrFrameTooLarge, bodyLen, fr.lim.MaxBody)
	}
	if fr.pool || f.kind == kindStreamChunk {
		f.body = getBodyBuf(int(bodyLen))
	} else {
		f.body = make([]byte, bodyLen)
	}
	behind, _ := fr.r.Peek(min(len(f.body), fr.r.Buffered())) // what arrived with the header
	n, _ := fr.r.Discard(copy(f.body, behind))
	_, err := io.ReadFull(fr.conn, f.body[n:])
	return f, err
}
