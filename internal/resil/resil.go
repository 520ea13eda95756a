// Package resil is the resilient client transport over the orb runtime:
// the layer that makes network-enabled stubs dependable when the network
// is not. A resil.Client manages a bounded pool of orb connections to
// one address and wraps every call with
//
//   - per-call deadlines: a default CallTimeout is applied when the
//     caller's context carries none, enforced by orb's context-aware
//     invoke (pending-call cancellation plus write deadlines);
//   - health-checked pooling: connections are dialed lazily with a dial
//     timeout, reused across calls (orb clients pipeline), discarded on
//     connection-level failure, and reaped after sitting idle;
//   - automatic retry: connection-level failures (ErrConnClosed, dial
//     errors) back off exponentially with jitter and retry on a fresh
//     or different connection. This is safe against the broker because
//     its operations are idempotent — verdicts and converters are
//     content-addressed by fingerprint, loads are keyed by universe
//     name; remote handler errors are never retried;
//   - optional hedging: when a call outlives the recent latency
//     percentile (the delay is always that adaptive one), a second copy
//     races it on another connection and the first success wins — masking
//     a slow or silently dead connection without waiting out the deadline.
//
// Every call is one Call — key, op, body and a kind — run through one
// envelope, Do. A stream is a kind of call, not a second API: it shares
// the deadline, the retry loop, the budget and the pool with a buffered
// call, and differs in the one line that talks to orb and in never
// being hedged.
//
// The dependability failure modes themselves (latency, resets,
// black-holes, truncation) are asserted against this client by the
// chaos test matrix (internal/chaos).
package resil

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/metrics"
	"repro/internal/orb"
)

// ErrClosed is returned by calls on a closed Client.
var ErrClosed = errors.New("resil: client closed")

// Options configures a Client; zero values select the defaults. Its
// timings are constants a test runs on a fake clock: retries back off 25ms,
// doubling with ±50% jitter up to 1s; a connection idle 60s is reaped; the
// hedge delay is the p95 of the last 128 latencies, 10ms below 8 samples.
type Options struct {
	// PoolSize bounds the number of live connections (default 4).
	PoolSize int
	// DialTimeout bounds each connection attempt (default 5s).
	DialTimeout time.Duration
	// CallTimeout is the per-call deadline applied when the caller's
	// context has none (default 15s; negative disables).
	CallTimeout time.Duration
	// MaxAttempts bounds tries per call, the first included (default 3).
	MaxAttempts int
	// Hedge enables request hedging: a duplicate attempt is raced on
	// another connection once a call outlives the adaptive hedge delay.
	// Only enable against idempotent services.
	Hedge bool
	// RetryBudget governs retries and hedges as a fraction of successes
	// (see RetryBudget). Nil creates a private budget with the defaults;
	// pass one instance to several Clients to make the cap shared (the
	// cluster client does this across its member pools).
	RetryBudget *RetryBudget
	clk         clock.Clock // nil selects clock.Real; tests substitute a fake
}

// The Client's timings, as Options gives them.
const (
	idleTimeout     = 60 * time.Second
	backoffBase     = 25 * time.Millisecond
	backoffMax      = time.Second
	hedgePercentile = 0.95
)

func (o Options) withDefaults() Options {
	if o.PoolSize <= 0 {
		o.PoolSize = 4
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.CallTimeout == 0 {
		o.CallTimeout = 15 * time.Second
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 3
	}
	if o.RetryBudget == nil {
		o.RetryBudget = NewRetryBudget(0, 0)
	}
	if o.clk == nil {
		o.clk = clock.Real
	}
	return o
}

// Stats is a snapshot of a Client's counters. The JSON tags are the
// upstream fields of `mbird remote stats -gateway -json`.
type Stats struct {
	// Conns is the number of live pooled connections.
	Conns int `json:"conns"`
	// Dials counts connections established over the Client's lifetime.
	Dials int64 `json:"dials"`
	// Discards counts connections dropped for failure or idleness.
	Discards int64 `json:"discards"`
	// Retries counts retry attempts (not first attempts).
	Retries int64 `json:"retries"`
	// Overloads counts attempts shed by the server with orb.ErrOverloaded
	// (each is retried with backoff until attempts run out).
	Overloads int64 `json:"overloads"`
	// Hedges counts hedge attempts launched; HedgeWins counts calls
	// completed by the hedge rather than the primary.
	Hedges    int64 `json:"hedges"`
	HedgeWins int64 `json:"hedge_wins"`
	// BudgetExhausted counts retries and hedges this Client wanted but
	// the retry budget refused.
	BudgetExhausted int64 `json:"budget_exhausted"`
}

// pconn is one pooled orb connection.
type pconn struct {
	c        *orb.Client
	inflight atomic.Int64
	lastUsed atomic.Int64 // unix nanos
}

// Client is a resilient, pooled client for one orb server address, safe
// for concurrent use.
type Client struct {
	addr string
	opts Options

	mu       sync.Mutex
	conns    []*pconn
	dialing  int
	dialed   chan struct{} // closed and replaced each time a dial ends
	closed   bool
	draining bool
	reaper   clock.Timer

	lat latencyWindow

	live Stats // bumped with sync/atomic; Stats loads it
}

// New returns a Client for addr. Connections are dialed lazily on first
// use; dial failures surface from the calls that need them.
func New(addr string, opts Options) *Client {
	c := &Client{
		addr:   addr,
		opts:   opts.withDefaults(),
		dialed: make(chan struct{}),
	}
	c.mu.Lock() // the reaper reads its own timer under mu
	c.reaper = c.opts.clk.AfterFunc(idleTimeout/4, c.reap)
	c.mu.Unlock()
	return c
}

// Close stops the idle reaper and tears down every pooled connection;
// in-flight calls fail with ErrConnClosed.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	conns := c.conns
	c.conns = nil
	c.reaper.Stop()
	c.mu.Unlock()
	for _, pc := range conns {
		_ = pc.c.Close()
	}
	return nil
}

// Drain retires the Client gracefully: new calls are refused with
// ErrClosed immediately, while connections with calls still in flight
// are left alone until those calls finish. Once every pooled connection
// is idle — or ctx expires, whichever comes first — the Client closes
// fully. This is the clean path for removing an endpoint from a
// rotation (a cluster member leaving the hash ring): the caller stops
// routing to the endpoint, then drains its pool instead of letting
// in-flight calls die with ErrConnClosed on an abrupt Close.
func (c *Client) Drain(ctx context.Context) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.draining = true
	c.mu.Unlock()

	t := time.NewTicker(5 * time.Millisecond)
	defer t.Stop()
	for {
		c.mu.Lock()
		idle := true
		for _, pc := range c.conns {
			if pc.inflight.Load() > 0 {
				idle = false
				break
			}
		}
		closed := c.closed
		c.mu.Unlock()
		if idle || closed {
			return c.Close()
		}
		select {
		case <-ctx.Done():
			_ = c.Close()
			return ctx.Err()
		case <-t.C:
		}
	}
}

// Stats returns a snapshot of the Client's counters.
func (c *Client) Stats() Stats {
	st := metrics.Load(&c.live)
	c.mu.Lock()
	st.Conns = len(c.conns)
	c.mu.Unlock()
	return st
}

// reap closes connections that have sat idle past idleTimeout, and
// re-arms itself until Close.
func (c *Client) reap() {
	cutoff := c.opts.clk.Now().Add(-idleTimeout).UnixNano()
	var idle []*pconn
	c.mu.Lock()
	live := c.conns[:0]
	for _, pc := range c.conns {
		if pc.inflight.Load() == 0 && pc.lastUsed.Load() < cutoff {
			idle = append(idle, pc)
			continue
		}
		live = append(live, pc)
	}
	c.conns = live
	if !c.closed {
		c.reaper.Reset(idleTimeout / 4)
	}
	c.mu.Unlock()
	for _, pc := range idle {
		atomic.AddInt64(&c.live.Discards, 1)
		_ = pc.c.Close()
	}
}

// acquire returns a healthy pooled connection (dialing a new one when
// the pool has room and no idle connection is available), marking it
// in-flight. exclude steers a hedge attempt off the primary's
// connection when the pool allows.
func (c *Client) acquire(ctx context.Context, exclude *pconn) (*pconn, error) {
	for {
		c.mu.Lock()
		if c.closed || c.draining {
			c.mu.Unlock()
			return nil, ErrClosed
		}
		// Prune connections whose read loop has died.
		var dead []*pconn
		live := c.conns[:0]
		for _, pc := range c.conns {
			if pc.c.Err() != nil {
				dead = append(dead, pc)
				continue
			}
			live = append(live, pc)
		}
		c.conns = live
		var best *pconn
		for _, pc := range c.conns {
			if pc == exclude {
				continue
			}
			if best == nil || pc.inflight.Load() < best.inflight.Load() {
				best = pc
			}
		}
		canDial := len(c.conns)+c.dialing < c.opts.PoolSize
		useBest := best != nil && (!canDial || best.inflight.Load() == 0)
		if useBest {
			best.inflight.Add(1)
		} else if canDial {
			c.dialing++
		}
		dialed := c.dialed
		c.mu.Unlock()
		for _, pc := range dead {
			atomic.AddInt64(&c.live.Discards, 1)
			_ = pc.c.Close()
		}
		switch {
		case useBest:
			return best, nil
		case canDial:
			return c.dial(ctx)
		case exclude != nil:
			// Pool exhausted by exclusion (PoolSize 1 hedge): fall back to
			// the excluded connection rather than failing.
			exclude.inflight.Add(1)
			return exclude, nil
		}
		// Nothing is live and every slot is mid-dial (a burst of first
		// calls on a cold pool): a connection is about to exist, so wait
		// for one of those dials to end and look again — on its success
		// there is a connection to share, on its failure a slot to dial in.
		wctx, cancel := context.WithTimeout(ctx, c.opts.DialTimeout)
		select {
		case <-dialed:
			cancel()
		case <-wctx.Done():
			cancel()
			return nil, fmt.Errorf("resil: no usable connection to %s: %w", c.addr, wctx.Err())
		}
	}
}

// dial fills the pool slot acquire reserved (c.dialing) with a fresh
// connection, in-flight for the caller, and wakes the callers waiting on
// a dial however it ends.
func (c *Client) dial(ctx context.Context) (*pconn, error) {
	dctx, cancel := context.WithTimeout(ctx, c.opts.DialTimeout)
	oc, err := orb.DialContext(dctx, c.addr)
	cancel()
	c.mu.Lock()
	c.dialing--
	close(c.dialed)
	c.dialed = make(chan struct{})
	if err != nil {
		c.mu.Unlock()
		return nil, err
	}
	if c.closed || c.draining {
		c.mu.Unlock()
		_ = oc.Close()
		return nil, ErrClosed
	}
	atomic.AddInt64(&c.live.Dials, 1)
	pc := &pconn{c: oc}
	pc.lastUsed.Store(c.opts.clk.Now().UnixNano())
	pc.inflight.Add(1)
	c.conns = append(c.conns, pc)
	c.mu.Unlock()
	return pc, nil
}

// release returns a connection to the pool after a call.
func (c *Client) release(pc *pconn) {
	pc.lastUsed.Store(c.opts.clk.Now().UnixNano())
	pc.inflight.Add(-1)
}

// discard removes a connection from the pool and closes it.
func (c *Client) discard(pc *pconn) {
	c.mu.Lock()
	for i, q := range c.conns {
		if q == pc {
			c.conns = append(c.conns[:i], c.conns[i+1:]...)
			break
		}
	}
	c.mu.Unlock()
	atomic.AddInt64(&c.live.Discards, 1)
	_ = pc.c.Close()
}

// retryable reports whether a failed call may be retried: connection-
// level failures, and overload sheds (the server declined before
// dispatch, so the request was never served and backoff-then-retry is
// both safe and the intended client reaction). Remote handler errors
// and server panics mean the request reached the handler; frame-limit
// errors are deterministic; deadline and cancellation mean the call's
// own budget is spent.
func retryable(err error) bool {
	if errors.Is(err, orb.ErrOverloaded) {
		return true
	}
	var re *orb.RemoteError
	switch {
	case errors.As(err, &re),
		errors.Is(err, orb.ErrServerPanic),
		errors.Is(err, orb.ErrFrameTooLarge),
		errors.Is(err, orb.ErrDeadline),
		errors.Is(err, orb.ErrCanceled),
		errors.Is(err, orb.ErrExpired),
		errors.Is(err, ErrRetryBudget),
		errors.Is(err, ErrClosed):
		return false
	}
	return true
}

// discardable reports whether a call error condemns its connection.
// Remote handler errors, local frame-limit rejections, overload sheds,
// and recovered server panics all arrived as well-formed replies over a
// healthy connection, so the connection is kept. Everything else does
// condemn it: even a deadline usually means the connection is stalled,
// and against a pipelining peer a fresh dial is cheaper than optimism.
func discardable(err error) bool {
	var re *orb.RemoteError
	switch {
	case errors.As(err, &re),
		errors.Is(err, orb.ErrFrameTooLarge),
		errors.Is(err, orb.ErrOverloaded),
		errors.Is(err, orb.ErrExpired),
		errors.Is(err, orb.ErrServerPanic):
		return false
	}
	return true
}

// deadlineCtx overlays a per-call deadline on a parent context without
// a timer goroutine or Done channel of its own. Cancellation still
// flows from the parent; the deadline itself is enforced where the
// call actually waits (orb's client arms a pooled timer from
// ctx.Deadline()), so wrapping every call stays allocation-free beyond
// this one small struct. Err reports expiry for callers that poll.
type deadlineCtx struct {
	context.Context
	dl time.Time
}

func (d *deadlineCtx) Deadline() (time.Time, bool) { return d.dl, true }

func (d *deadlineCtx) Err() error {
	if err := d.Context.Err(); err != nil {
		return err
	}
	if !time.Now().Before(d.dl) {
		return context.DeadlineExceeded
	}
	return nil
}

// Kind says how a Call's payload travels.
type Kind uint8

const (
	// Buffered is a request/reply call: the body goes out whole and the
	// reply comes back whole, so the call may be retried and hedged.
	Buffered Kind = iota
	// Stream opens an orb stream. A stream is stateful — chunks already
	// forwarded cannot be replayed — so the envelope covers only the open
	// (acquiring a connection and writing the open frame), the window
	// before any payload is committed, and never hedges. Once the stream
	// is handed to the caller, failures are final and surface as typed
	// mid-stream errors.
	Stream
)

// Call describes one call to an object on the Client's server.
type Call struct {
	Key  string
	Op   uint32
	Body []byte // Buffered only; a Stream's payload is written to Result.Stream
	Kind Kind
}

// Result is what a successful Call yields.
type Result struct {
	// Reply is a Buffered call's reply body.
	Reply []byte
	// Stream is a Stream call's open stream, holding a pooled connection
	// until Done.
	Stream *orb.StreamCall
	// Done is nil for a Buffered call, which is finished when Do returns.
	// For a Stream it must be called exactly once when the caller is
	// finished with the stream (after Close), with the stream's terminal
	// error (nil on success): it returns the connection to the pool, or
	// discards it when the error condemns it.
	Done func(error)
}

// InvokeContext is Do for a Buffered call.
func (c *Client) InvokeContext(ctx context.Context, key string, op uint32, body []byte) ([]byte, error) {
	res, err := c.Do(ctx, Call{Key: key, Op: op, Body: body})
	return res.Reply, err
}

// Do performs a resilient call: deadline-bounded, retried with backoff
// on connection-level failure, hedged when enabled and the kind allows.
// The error from the final attempt is returned, wrapped with the attempt
// count when retries were exhausted.
func (c *Client) Do(ctx context.Context, call Call) (Result, error) {
	if c.opts.CallTimeout > 0 {
		if _, ok := ctx.Deadline(); !ok {
			ctx = &deadlineCtx{Context: ctx, dl: time.Now().Add(c.opts.CallTimeout)}
		}
	}
	var lastErr error
	attempt := 0
	for ; attempt < c.opts.MaxAttempts; attempt++ {
		if attempt > 0 {
			// Every retry spends a shared budget token; when the budget is
			// dry the backend is failing broadly and piling on attempts
			// would amplify the outage, so fail fast instead.
			if !c.opts.RetryBudget.Withdraw() {
				atomic.AddInt64(&c.live.BudgetExhausted, 1)
				return Result{}, fmt.Errorf("%w: after %d attempts to %s: %w", ErrRetryBudget, attempt, c.addr, lastErr)
			}
			atomic.AddInt64(&c.live.Retries, 1)
			if err := c.backoff(ctx, attempt); err != nil {
				break // lastErr, the failed attempt, stays the cause
			}
		}
		var res Result
		var err error
		if c.opts.Hedge && call.Kind == Buffered {
			res.Reply, err = c.hedged(ctx, call)
		} else {
			res, err = c.attempt(ctx, call)
		}
		if err == nil {
			c.opts.RetryBudget.Deposit()
			return res, nil
		}
		if errors.Is(err, orb.ErrOverloaded) {
			atomic.AddInt64(&c.live.Overloads, 1)
		}
		lastErr = err
		if !retryable(err) {
			return Result{}, err
		}
	}
	return Result{}, fmt.Errorf("resil: %d attempts to %s failed: %w", attempt, c.addr, lastErr)
}

// attempt runs the call once, on one pooled connection.
func (c *Client) attempt(ctx context.Context, call Call) (Result, error) {
	pc, err := c.acquire(ctx, nil)
	if err != nil {
		return Result{}, err
	}
	return c.on(ctx, pc, call, false)
}

// on issues call on the acquired connection pc — the one place the two
// kinds differ — and settles pc's place in the pool: released, discarded
// when the error condemns it, or for an open stream left in flight until
// the caller's Done. raced marks an attempt inside a hedge race, whose
// context the winner cancels: the loser's connection is not condemned
// for that.
func (c *Client) on(ctx context.Context, pc *pconn, call Call, raced bool) (res Result, err error) {
	start := time.Now()
	if call.Kind == Stream {
		res.Stream, err = pc.c.OpenStream(ctx, call.Key, call.Op)
	} else {
		res.Reply, err = pc.c.InvokeContext(ctx, call.Key, call.Op, call.Body)
	}
	switch {
	case err != nil && raced && ctx.Err() != nil:
		c.release(pc)
	case err != nil:
		c.settle(pc, err)
	case res.Stream != nil:
		res.Done = func(callErr error) { c.settle(pc, callErr) }
	default:
		c.release(pc)
		c.lat.record(time.Since(start))
	}
	return res, err
}

// settle returns pc to the pool after a call that ended with err, or
// discards it when err condemns the connection.
func (c *Client) settle(pc *pconn, err error) {
	c.release(pc)
	if err != nil && discardable(err) {
		c.discard(pc)
	}
}

// hedged races a duplicate attempt against the primary once the hedge
// delay elapses; the first success wins and the loser is canceled.
func (c *Client) hedged(ctx context.Context, call Call) ([]byte, error) {
	// The losing attempt's goroutine can outlive this call, and callers
	// under orb body pooling may recycle body the moment we return —
	// race the duplicates over a private copy.
	if len(call.Body) > 0 {
		call.Body = append([]byte(nil), call.Body...)
	}
	hctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type res struct {
		reply []byte
		err   error
		hedge bool
	}
	ch := make(chan res, 2)
	run := func(hedge bool, exclude *pconn) *pconn {
		pc, err := c.acquire(hctx, exclude)
		if err != nil {
			ch <- res{err: err, hedge: hedge}
			return nil
		}
		go func() {
			r, err := c.on(hctx, pc, call, true)
			ch <- res{reply: r.Reply, err: err, hedge: hedge}
		}()
		return pc
	}
	primary := run(false, nil)
	fire := make(chan struct{}, 1)
	defer c.opts.clk.AfterFunc(c.hedgeDelay(), func() { fire <- struct{}{} }).Stop()
	launched := 1
	var lastErr error
	for got := 0; got < launched; {
		select {
		case r := <-ch:
			got++
			if r.err == nil {
				if r.hedge {
					atomic.AddInt64(&c.live.HedgeWins, 1)
				}
				return r.reply, nil
			}
			if lastErr == nil || !errors.Is(r.err, orb.ErrCanceled) {
				lastErr = r.err
			}
		case <-fire:
			// A hedge is a speculative retry; it spends the same budget
			// token a retry would. Refused hedges just let the primary run
			// to its own deadline.
			if !c.opts.RetryBudget.Withdraw() {
				atomic.AddInt64(&c.live.BudgetExhausted, 1)
				continue
			}
			atomic.AddInt64(&c.live.Hedges, 1)
			run(true, primary)
			launched = 2
		}
	}
	return nil, lastErr
}

// hedgeDelay is the time to let the primary run before hedging.
func (c *Client) hedgeDelay() time.Duration {
	if d, ok := c.lat.percentile(hedgePercentile); ok {
		return d
	}
	return 10 * time.Millisecond // no samples yet: the cold-start delay
}

// backoff sleeps the exponential-with-jitter retry delay, aborting if
// the call's context expires first.
func (c *Client) backoff(ctx context.Context, attempt int) error {
	d := backoffBase << (attempt - 1)
	if d > backoffMax || d <= 0 {
		d = backoffMax
	}
	// Jitter to ±50% so synchronized clients don't retry in lockstep.
	d = d/2 + time.Duration(rand.Int63n(int64(d)))
	// Deadline-only contexts (the CallTimeout overlay) have no Done
	// channel to interrupt the sleep, so check explicitly: when the
	// remaining budget can't survive the backoff, fail now rather than
	// sleeping into certain expiry.
	if dl, ok := ctx.Deadline(); ok && time.Until(dl) <= d {
		return context.DeadlineExceeded
	}
	wake := make(chan struct{})
	defer c.opts.clk.AfterFunc(d, func() { close(wake) }).Stop()
	select {
	case <-wake:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// latencyWindow tracks recent successful call latencies for the
// percentile-based hedge delay.
type latencyWindow struct {
	mu      sync.Mutex
	samples [128]time.Duration
	n       int // total recorded; ring index is n % len
}

func (w *latencyWindow) record(d time.Duration) {
	w.mu.Lock()
	w.samples[w.n%len(w.samples)] = d
	w.n++
	w.mu.Unlock()
}

// percentile returns the p-quantile of the window, or false with fewer
// than 8 samples (too noisy to hedge on).
func (w *latencyWindow) percentile(p float64) (time.Duration, bool) {
	w.mu.Lock()
	n := w.n
	if n > len(w.samples) {
		n = len(w.samples)
	}
	if n < 8 {
		w.mu.Unlock()
		return 0, false
	}
	buf := make([]time.Duration, n)
	copy(buf, w.samples[:n])
	w.mu.Unlock()
	sort.Slice(buf, func(i, j int) bool { return buf[i] < buf[j] })
	idx := int(p * float64(n-1))
	return buf[idx], true
}
