package orb

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// result is one unary call's outcome, delivered through its pending-map
// slot: either a reply/error frame or the connection-level error that
// killed the call.
type result struct {
	f   frame
	err error
}

// waiter is one entry of the client's in-flight table: a unary call's
// reply channel, claimed by the first frame that carries its id, or a
// live stream call, which stays until it is closed.
type waiter struct {
	ch chan result
	sc *StreamCall
}

// resultChPool recycles the per-call reply channels. A channel is only
// returned to the pool on paths where no sender can still be holding it:
// after the single send was received, or after the call's pending-map
// entry was removed while still present (proving no sender claimed it).
// Abandoned calls whose entry was already claimed leak their channel to
// the GC — the late sender owns it.
var resultChPool = sync.Pool{New: func() any { return make(chan result, 1) }}

// deadlineSlack is how far past a context's deadline the pooled
// backstop timer fires. A context with a working Done channel expires
// through that channel well inside the slack, preserving its exact
// expiry semantics; only deadline-only contexts fall through to the
// backstop.
const deadlineSlack = 5 * time.Millisecond

// waitTimer is a pooled timer for deadline-bounded reply waits. The
// fire channel is drained on acquire, and a consumer that wakes early
// (a stale fire from a previous user slipping past Stop) re-arms and
// keeps waiting — so the classic pooled-timer race costs a spurious
// wakeup, never a wrong result.
var waitTimerPool = sync.Pool{
	New: func() any {
		t := time.NewTimer(time.Hour)
		t.Stop()
		return t
	},
}

func acquireWaitTimer(d time.Duration) *time.Timer {
	t := waitTimerPool.Get().(*time.Timer)
	select {
	case <-t.C:
	default:
	}
	t.Reset(d)
	return t
}

func releaseWaitTimer(t *time.Timer) {
	t.Stop()
	waitTimerPool.Put(t)
}

// Client is a connection to a Server, safe for concurrent use. Requests
// are pipelined and correlated by id.
type Client struct {
	conn net.Conn
	lim  Limits

	writeMu sync.Mutex

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]waiter // every call in flight, unary or stream
	err     error
	done    chan struct{}
}

// Dial connects to a server address. Options adjust the client's frame
// limits (defaults: 16 MiB bodies, 4 KiB keys).
func Dial(addr string, opts ...Option) (*Client, error) {
	return DialContext(context.Background(), addr, opts...)
}

// DialContext connects to a server address, bounding the dial by the
// context's deadline or cancellation.
func DialContext(ctx context.Context, addr string, opts ...Option) (*Client, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrDial, err)
	}
	c := &Client{
		conn:    conn,
		lim:     applyOptions(opts),
		pending: make(map[uint64]waiter),
		done:    make(chan struct{}),
	}
	go c.readLoop()
	return c, nil
}

// Close tears down the connection; in-flight Invokes fail with
// ErrConnClosed.
func (c *Client) Close() error {
	err := c.conn.Close()
	<-c.done
	return err
}

// Err returns the connection's terminal error, or nil while the
// connection is healthy. Connection pools use it as the health check.
func (c *Client) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// fail records the connection's terminal error and fails every in-flight
// call with it, draining the pending map so no caller is left blocked
// and no entry leaks.
func (c *Client) fail(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err == nil {
		if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) {
			c.err = ErrConnClosed
		} else {
			c.err = fmt.Errorf("%w: %w", ErrConnClosed, err)
		}
	}
	for id, w := range c.pending {
		delete(c.pending, id)
		if w.sc != nil {
			w.sc.fail(c.err)
		} else {
			w.ch <- result{err: c.err}
		}
	}
}

func (c *Client) readLoop() {
	defer close(c.done)
	fr := newFrameReader(c.conn, c.lim, false)
	for {
		f, err := fr.read()
		if err != nil {
			c.fail(err)
			return
		}
		c.mu.Lock()
		w := c.pending[f.id]
		if w.ch != nil {
			delete(c.pending, f.id)
		}
		c.mu.Unlock()
		switch {
		case w.ch != nil:
			w.ch <- result{f: f}
		case w.sc != nil:
			w.sc.onFrame(f)
		}
	}
}

// register enters a call in the in-flight table under a fresh id, unless
// the connection is already dead.
func (c *Client) register(w waiter) (uint64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return 0, c.err
	}
	c.nextID++
	if w.sc != nil {
		w.sc.id = c.nextID
	}
	c.pending[c.nextID] = w
	return c.nextID, nil
}

// forget removes a call's entry and reports whether it was still there.
func (c *Client) forget(id uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, present := c.pending[id]
	delete(c.pending, id)
	return present
}

// write serializes a frame onto the connection. When the context carries
// a deadline it is applied as the write deadline; a write that fails
// after putting bytes on the wire has left a partial frame there, so the
// connection is killed (failing all other in-flight calls) rather than
// left unframeable. A write that fails before any byte reaches the wire
// — the common case when a caller's deadline expires between arming it
// and the syscall — leaves the stream perfectly framed, so the
// connection stays usable and only this call reports the deadline.
func (c *Client) write(ctx context.Context, f frame) error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	if d, ok := ctx.Deadline(); ok {
		_ = c.conn.SetWriteDeadline(d)
		defer func() { _ = c.conn.SetWriteDeadline(time.Time{}) }()
	}
	n, err := writeFrame(c.conn, f, c.lim)
	if err == nil || errors.Is(err, ErrFrameTooLarge) {
		return err
	}
	var nerr net.Error
	timeout := errors.As(err, &nerr) && nerr.Timeout()
	if !timeout || n > 0 {
		_ = c.conn.Close()
	}
	if timeout {
		return fmt.Errorf("%w: write: %v", ErrDeadline, err)
	}
	return fmt.Errorf("%w: write: %v", ErrConnClosed, err)
}

// sendCancel best-effort aborts an abandoned request server-side. Runs
// on its own goroutine so the abandoning caller returns immediately; the
// write is bounded so a wedged connection cannot pin the goroutine.
func (c *Client) sendCancel(id uint64) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_ = c.write(ctx, frame{kind: kindCancel, id: id})
}

// Invoke sends a request to the object's op and waits for the reply
// body.
func (c *Client) Invoke(key string, op uint32, body []byte) ([]byte, error) {
	return c.InvokeContext(context.Background(), key, op, body)
}

// InvokeContext sends a request and waits for the reply body, honoring
// the context: on deadline expiry or cancellation the pending call is
// abandoned (its map entry removed, a late reply discarded, a cancel
// frame sent so the server stops working on it) and a typed
// ErrDeadline/ErrCanceled is returned. The connection itself stays
// usable — only a write that timed out mid-frame poisons it.
//
// The context's remaining time (or an explicit ContextWithBudget value)
// travels with the request as its deadline budget, so every downstream
// hop can shed work the caller has already given up on.
func (c *Client) InvokeContext(ctx context.Context, key string, op uint32, body []byte) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, ctxErr(err)
	}
	ch := resultChPool.Get().(chan result)
	id, err := c.register(waiter{ch: ch})
	if err != nil {
		resultChPool.Put(ch)
		return nil, err
	}
	fr := frame{kind: kindRequest, id: id, key: key, op: op, body: body, budget: budgetMillis(ctx)}
	if err := c.write(ctx, fr); err != nil {
		c.abandon(id, ch)
		return nil, err
	}

	// The wait is additionally bounded by a pooled backstop timer armed
	// a little past the context's deadline. Deadline-only contexts
	// (resil's CallTimeout overlay) have no Done channel of their own,
	// so this timer is what enforces their deadline; contexts with a
	// live Done fire first and keep their own expiry semantics — the
	// slack exists so the backstop never races them.
	var timeoutCh <-chan time.Time
	var wt *time.Timer
	deadline, hasDeadline := ctx.Deadline()
	if hasDeadline {
		wt = acquireWaitTimer(time.Until(deadline) + deadlineSlack)
		defer releaseWaitTimer(wt)
		timeoutCh = wt.C
	}
	for {
		select {
		case r := <-ch:
			resultChPool.Put(ch)
			if r.err != nil {
				return nil, r.err
			}
			if r.f.kind == kindError {
				return nil, errFromFrame(r.f)
			}
			return r.f.body, nil
		case <-ctx.Done():
			err = ctxErr(ctx.Err())
		case <-timeoutCh:
			if cerr := ctx.Err(); cerr != nil {
				// The context expired on its own terms while we were
				// being woken; report its verdict, not the backstop's.
				err = ctxErr(cerr)
			} else if rem := time.Until(deadline); rem > 0 {
				// Spurious wake from a recycled timer; re-arm and keep
				// waiting out the remainder.
				wt.Reset(rem + deadlineSlack)
				continue
			} else {
				err = ErrDeadline
			}
		}
		// The one way out for a caller that stopped waiting: give the
		// entry up and tell the server to stop working on it.
		c.abandon(id, ch)
		go c.sendCancel(id)
		return nil, err
	}
}

// abandon removes a call's pending entry. If the entry was still
// present, no sender can ever touch the channel and it returns to the
// pool, empty as it came; if the read loop already claimed it, the late
// send owns the channel and it is left to the GC.
func (c *Client) abandon(id uint64, ch chan result) {
	if c.forget(id) {
		resultChPool.Put(ch)
	}
}

// Send delivers a one-way message: no reply, no delivery confirmation
// (the messaging model the collaborative-objects project needed, §5).
func (c *Client) Send(key string, op uint32, body []byte) error {
	return c.write(context.Background(), frame{kind: kindOneway, key: key, op: op, body: body})
}
