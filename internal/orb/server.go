package orb

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/metrics"
)

// serverCtx is the context.Context handed to handlers: a flat
// cancel-plus-deadline context with no parent chain. Compared to
// context.WithDeadline it allocates nothing on the steady-state path —
// the struct (inside its pooled call), its done channel and its deadline
// timer are all reused across requests, which is why a handler must not
// hold the context or its Done channel past return.
type serverCtx struct {
	clk   clock.Clock
	mu    sync.Mutex
	dl    time.Time     // zero: the request carried no budget
	done  chan struct{} // closed exactly when err is set
	err   error
	timer clock.Timer
}

// arm readies the context for one request, setting the pooled deadline
// timer when the request carries a budget.
func (c *serverCtx) arm(deadline time.Time) {
	c.mu.Lock()
	c.dl = deadline
	c.mu.Unlock()
	if deadline.IsZero() {
		return
	}
	if d := deadline.Sub(c.clk.Now()); c.timer == nil {
		c.timer = c.clk.AfterFunc(d, c.expire)
	} else {
		c.timer.Reset(d)
	}
}

// expire is the deadline timer's callback. A pooled timer's callback can
// run late — Stop does not wait for one already started — and would then
// land on the next request, so the verdict comes from the clock and the
// current deadline, not from the fact of firing.
func (c *serverCtx) expire() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.dl.IsZero() && !c.clk.Now().Before(c.dl) {
		c.end(context.DeadlineExceeded)
	}
}

// disarm stops the deadline timer and resets the context for its next
// request.
func (c *serverCtx) disarm() {
	if c.timer != nil {
		c.timer.Stop()
	}
	c.mu.Lock()
	c.dl = time.Time{}
	if c.err != nil {
		// An open done channel serves the next request; a closed one is
		// spent.
		c.err, c.done = nil, make(chan struct{})
	}
	c.mu.Unlock()
}

// cancel aborts the request (cancel frame or teardown) and reports
// whether this call was what ended the context.
func (c *serverCtx) cancel(err error) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.end(err)
}

// end records the context's verdict, once; mu is held.
func (c *serverCtx) end(err error) bool {
	if c.err != nil {
		return false
	}
	c.err = err
	close(c.done)
	return true
}

func (c *serverCtx) Deadline() (time.Time, bool) { return c.dl, !c.dl.IsZero() }

// DeadlinePassed reports whether ctx's deadline has come by now. A
// context's Err can still be nil then: the timer that ends it may run
// late, after a reply-wait backstop or a handler has given up.
func DeadlinePassed(ctx context.Context, now time.Time) bool {
	dl, ok := ctx.Deadline()
	return ok && !now.Before(dl)
}

// Done takes the lock although the channel is only replaced between
// requests: a context derived from this one is watched by a goroutine of
// the context package's, which may call Done after the handler returned.
func (c *serverCtx) Done() <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.done
}

func (c *serverCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

func (c *serverCtx) Value(key any) any { return nil }

// Handler serves invocations on one exported object. op selects the
// method alternative; the returned bytes are the reply body. For one-way
// messages the return value is discarded. ctx carries the request's
// propagated deadline budget (if any) and is canceled when the client
// sends a cancel frame or its connection dies — long handlers should
// watch it and abandon work nobody is waiting for. body and ctx are dead
// once the handler returns (see the package comment).
type Handler func(ctx context.Context, op uint32, body []byte) ([]byte, error)

// Call invokes h and converts a panic into an error wrapping
// ErrServerPanic, so one poisoned request cannot take down the process.
// The server uses it for every dispatch; handler wrappers that move work
// onto their own goroutines (e.g. the broker's request-timeout wrapper)
// must use it there too, because a panic on a goroutine the orb never
// sees is fatal no matter what the orb recovers.
func Call(ctx context.Context, h Handler, op uint32, body []byte) (out []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: %v", ErrServerPanic, r)
		}
	}()
	return h(ctx, op, body)
}

// ServerStats counts hardening events on a server.
type ServerStats struct {
	// Panics is the number of handler panics recovered.
	Panics int64
	// Shed is the number of requests refused by the per-connection
	// concurrency cap (one-way messages dropped over the cap included).
	Shed int64
	// Expired is the number of requests whose propagated budget was
	// already spent at dispatch time: they were answered with ErrExpired
	// before the handler ran — zero work done for callers that had
	// already given up.
	Expired int64
	// Canceled is the number of in-flight requests aborted by a client
	// cancel frame.
	Canceled int64
}

// Server exports objects on a TCP listener.
type Server struct {
	ln       net.Listener
	lim      Limits
	callPool sync.Pool // of *call, on lim's clock

	live ServerStats // bumped with sync/atomic; Stats loads it

	mu             sync.Mutex
	handlers       map[string]Handler
	streamHandlers map[string]StreamHandler
	conns          map[net.Conn]*serverConn
	closed         bool
	draining       bool
	wg             sync.WaitGroup
}

// NewServer starts a server listening on addr (e.g. "127.0.0.1:0").
// Options adjust the frame limits (defaults: 16 MiB bodies, 4 KiB keys).
func NewServer(addr string, opts ...Option) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("orb: listen: %w", err)
	}
	s := &Server{
		ln:             ln,
		lim:            applyOptions(opts),
		handlers:       make(map[string]Handler),
		streamHandlers: make(map[string]StreamHandler),
		conns:          make(map[net.Conn]*serverConn),
	}
	s.callPool.New = func() any {
		return &call{serverCtx: serverCtx{clk: s.lim.clk, done: make(chan struct{})}}
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listening address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Stats returns a snapshot of the server's hardening counters.
func (s *Server) Stats() ServerStats { return metrics.Load(&s.live) }

// Draining reports whether the server has begun a graceful shutdown and
// is no longer accepting work. Health endpoints expose it as readiness.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining || s.closed
}

// Register exports an object under a key. Registering an existing key
// replaces the handler.
func (s *Server) Register(key string, h Handler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.handlers[key] = h
}

// RegisterStream exports a streaming object under a key. A key may carry
// both a buffered Handler and a StreamHandler; buffered requests and
// stream opens dispatch independently.
func (s *Server) RegisterStream(key string, h StreamHandler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.streamHandlers[key] = h
}

// Unregister withdraws an exported object. Requests already dispatched
// to the old handler finish normally; new requests for the key are
// answered with a no-object error. Proxies (the interop gateway) use it
// to retire routes on a hot reload without restarting the listener.
func (s *Server) Unregister(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.handlers, key)
	delete(s.streamHandlers, key)
}

// Close stops the listener and all connections, and waits for the
// serving goroutines to exit. In-flight calls have their contexts
// canceled and their replies dropped; use Shutdown to drain them first.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.closeConns()
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

// Shutdown gracefully drains the server: it stops accepting connections
// and new frames, lets unary requests already dispatched finish and write
// their replies, fails live streams at once (they cannot complete without
// the read loop; see teardown), then closes every connection. If ctx
// expires before the drain completes, remaining connections are closed
// forcibly (their in-flight requests fail client-side with
// ErrConnClosed). Shutdown always waits for the serving goroutines to
// exit before returning.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	for c := range s.conns {
		// Nudge the per-connection read loops off their blocking reads:
		// no new frames are picked up, while replies (writes) still flow.
		_ = c.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()
	err := s.ln.Close()
	stop := context.AfterFunc(ctx, s.closeConns) // the drain ran out of time
	s.wg.Wait()
	stop()
	return err
}

func (s *Server) closeConns() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for c := range s.conns {
		_ = c.Close()
	}
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed || s.draining {
			s.mu.Unlock()
			_ = conn.Close()
			return
		}
		sc := &serverConn{s: s, conn: conn, calls: make(map[uint64]*call), work: make(chan *call)}
		s.conns[conn] = sc
		s.mu.Unlock()
		s.wg.Add(1)
		go sc.serve()
	}
}

// call is one dispatched request, oneway or stream: the record a server
// connection's table holds. It embeds the handler's context, so the entry
// a cancel frame finds is the thing it cancels, and it is pooled whole.
type call struct {
	serverCtx
	req frame         // the admitted frame; its body is the call's until it ends
	h   Handler       // request and oneway
	sh  StreamHandler // stream open
	end *streamEnd    // nil unless the call is a stream
}

// handle is the call as a Handler, so Call's panic isolation covers both
// handler types.
func (cl *call) handle(ctx context.Context, op uint32, body []byte) ([]byte, error) {
	if cl.end == nil {
		return cl.h(ctx, op, body)
	}
	cl.end.topUp()
	return nil, cl.sh(ctx, op, &StreamReader{cl.end}, &StreamWriter{cl.end})
}

// maxParkedWorkers bounds the workers parked on a connection between
// calls; a pipelining caller can use as many as it has calls in flight.
const maxParkedWorkers = 8

// serverConn is the server half of one connection.
type serverConn struct {
	s       *Server
	conn    net.Conn
	writeMu sync.Mutex

	work    chan *call     // unbuffered: a send succeeds only onto a parked worker; teardown closes it
	workers sync.WaitGroup // workers started and not yet exited
	started atomic.Int32   // workers ever started (tests count them)
	parked  atomic.Int32   // workers waiting on work, or about to

	// The read loop's goroutine enters calls and looks them up; a worker
	// removes the one it ran. A lookup uses the call under mu too, so a
	// cancel frame never touches one that has gone back to the pool.
	mu    sync.Mutex
	calls map[uint64]*call // requests and streams in flight, by id
	// inFlight is what the per-connection cap bounds: len(calls) plus
	// the oneways running, which have no id to be entered under.
	inFlight int
}

// write puts one frame on the connection.
func (sc *serverConn) write(f frame) error {
	sc.writeMu.Lock()
	defer sc.writeMu.Unlock()
	_, err := writeFrame(sc.conn, f, sc.s.lim)
	return err
}

// replyErr is the one writer of error frames: every refusal at the gate
// and every failed call that has put no reply chunk on the wire.
func (sc *serverConn) replyErr(id uint64, err error) {
	code, body := errFrameCode(err)
	_ = sc.write(frame{kind: kindError, id: id, op: code, body: body})
}

// serve is the connection's read loop.
func (sc *serverConn) serve() {
	defer sc.teardown()
	fr := newFrameReader(sc.conn, sc.s.lim, true)
	for {
		f, err := fr.read()
		if err != nil {
			return
		}
		switch f.kind {
		case kindRequest, kindOneway, kindStreamOpen:
			if cl := sc.admit(f); cl != nil {
				select {
				case sc.work <- cl: // a parked worker has it
				default:
					sc.started.Add(1)
					sc.workers.Add(1)
					go sc.worker(cl)
				}
			}
		default:
			if !sc.onFrame(f) {
				return
			}
		}
	}
}

// onFrame applies a frame that addresses a call in flight — a cancel, or
// a stream's chunk, close or credit — and drops one whose call has ended
// or never existed, or of a kind a server does not expect. It reports
// false when a peer wrote past its credit: on a server the connection is
// the unit of trust, and the caller kills it.
func (sc *serverConn) onFrame(f frame) bool {
	var end *streamEnd
	sc.mu.Lock()
	if cl := sc.calls[f.id]; cl != nil {
		end = cl.end
		if f.kind == kindCancel && cl.cancel(context.Canceled) {
			atomic.AddInt64(&sc.s.live.Canceled, 1)
		}
		if f.kind == kindCancel && end != nil {
			end.fail(ErrCanceled)
		}
	}
	sc.mu.Unlock()
	if end != nil && f.kind != kindCancel {
		return end.onFrame(f)
	}
	putBodyBuf(f.body)
	return true
}

// admit is the one gate a request, a oneway and a stream open all pass;
// the package comment gives the order and why. A refused frame gives its
// body back and is answered through replyErr (a oneway is just dropped);
// an admitted one is entered in the table and returned for a worker.
func (sc *serverConn) admit(f frame) *call {
	s := sc.s
	var deadline time.Time
	if f.budget > 0 {
		// The budget clock started at hdrAt: a body that trickled in past it is
		// expired, and an expired request should not count against capacity.
		deadline = f.hdrAt.Add(time.Duration(f.budget) * time.Millisecond)
		if over := s.lim.clk.Now().Sub(deadline); over >= 0 {
			atomic.AddInt64(&s.live.Expired, 1)
			sc.refuse(f, fmt.Errorf("%w: budget of %dms spent %v before dispatch", ErrExpired, f.budget, over.Round(time.Millisecond)))
			return nil
		}
	}
	stream := f.kind == kindStreamOpen
	var h Handler
	var sh StreamHandler
	s.mu.Lock()
	if stream {
		sh = s.streamHandlers[f.key]
	} else {
		h = s.handlers[f.key]
	}
	s.mu.Unlock()

	var deny error
	sc.mu.Lock()
	switch _, live := sc.calls[f.id]; {
	case sc.inFlight >= s.lim.MaxPerConn:
		// No dispatch, no queue: the peer gets a typed error to back off on.
		atomic.AddInt64(&s.live.Shed, 1)
		deny = fmt.Errorf("%w: connection exceeds %d concurrent requests", ErrOverloaded, s.lim.MaxPerConn)
	case stream && sh == nil:
		deny = fmt.Errorf("%w: no stream object %q", ErrUnavailable, f.key)
	case h == nil && sh == nil:
		deny = fmt.Errorf("%w: no object %q", ErrUnavailable, f.key)
	case live && f.kind != kindOneway:
		// Entering it would orphan the first call: no cancel frame, chunk
		// or teardown could reach it again.
		deny = fmt.Errorf("id %d names a call still in flight on this connection", f.id)
	}
	if deny != nil {
		sc.mu.Unlock()
		sc.refuse(f, deny)
		return nil
	}
	cl := s.callPool.Get().(*call)
	cl.req, cl.h, cl.sh = f, h, sh
	if stream {
		cl.end = newStreamEnd(f.id, sc.write)
	}
	if f.kind != kindOneway {
		sc.calls[f.id] = cl
	}
	sc.inFlight++
	sc.mu.Unlock()
	cl.arm(deadline)
	return cl
}

func (sc *serverConn) refuse(f frame, err error) {
	putBodyBuf(f.body)
	if f.kind != kindOneway {
		sc.replyErr(f.id, err)
	}
}

// errGoexit ends a call whose handler ended its goroutine, not returned.
var errGoexit = fmt.Errorf("%w: handler called runtime.Goexit", ErrServerPanic)

// worker is the one goroutine body under every admitted call: handler,
// finish, park, next call. It ends with the connection, when enough are
// parked, or when a handler ends the goroutine under it (finish still runs).
func (sc *serverConn) worker(cl *call) {
	defer func() {
		if cl != nil {
			sc.finish(cl, nil, errGoexit)
		}
		sc.workers.Done()
	}()
	for cl != nil {
		reply, err := Call(&cl.serverCtx, cl.handle, cl.req.op, cl.req.body)
		sc.finish(cl, reply, err)
		cl = nil
		if sc.parked.Add(1) <= maxParkedWorkers {
			cl = <-sc.work // nil once teardown has closed it
		}
		sc.parked.Add(-1)
	}
}

// finish ends a call with its handler's verdict.
func (sc *serverConn) finish(cl *call, reply []byte, err error) {
	req := &cl.req
	if err != nil {
		if errors.Is(err, ErrServerPanic) {
			atomic.AddInt64(&sc.s.live.Panics, 1)
		}
		// A handler that bailed because the propagated budget ran out
		// mid-work reports ErrExpired, not a generic error: the caller's
		// clock ran out, the service is healthy. The deadline's timer may
		// not have run yet.
		if req.budget > 0 && !errors.Is(err, ErrExpired) &&
			(errors.Is(err, context.DeadlineExceeded) || errors.Is(err, ErrDeadline)) &&
			(cl.Err() != nil || DeadlinePassed(cl, cl.clk.Now())) {
			err = fmt.Errorf("%w: handler abandoned at budget expiry: %v", ErrExpired, err)
		}
	}

	// Out of the table before the terminal frame: see the package comment.
	sc.mu.Lock()
	if req.kind != kindOneway {
		delete(sc.calls, req.id)
	}
	sc.inFlight--
	sc.mu.Unlock()
	switch {
	case req.kind == kindOneway:
	case err == nil && cl.end == nil:
		_ = sc.write(frame{kind: kindReply, id: req.id, body: reply})
	case err == nil:
		_ = sc.write(frame{kind: kindStreamClose, id: req.id})
	case cl.end != nil && cl.end.wrote():
		code, body := errFrameCode(err)
		_ = sc.write(frame{kind: kindStreamClose, id: req.id, op: code + 1, body: body})
	default:
		sc.replyErr(req.id, err)
	}

	if cl.end != nil {
		// Release the chunks the handler never consumed; any still on
		// their way drop at the table miss.
		cl.end.fail(ErrConnClosed)
	}
	// Only now: an echoing handler's reply is its request body.
	putBodyBuf(req.body)
	cl.disarm()
	cl.req, cl.h, cl.sh, cl.end = frame{}, nil, nil, nil
	sc.s.callPool.Put(cl)
}

// teardown runs when the read loop ends: it walks the table once, as the
// package comment says, then waits the workers out, parked or running,
// and closes the connection.
func (sc *serverConn) teardown() {
	s := sc.s
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	sc.mu.Lock()
	for _, cl := range sc.calls {
		if cl.end != nil || !draining {
			cl.cancel(context.Canceled)
		}
		if cl.end != nil {
			cl.end.fail(ErrConnClosed)
		}
	}
	sc.mu.Unlock()
	close(sc.work)
	sc.workers.Wait()
	s.mu.Lock()
	delete(s.conns, sc.conn)
	s.mu.Unlock()
	_ = sc.conn.Close()
	s.wg.Done()
}
