// Package resil is the resilient client transport over the orb runtime:
// the layer that makes network-enabled stubs dependable when the network
// is not. A resil.Client manages a bounded pool of orb connections to
// one address and wraps every call with
//
//   - per-call deadlines: CallTimeout bounds each endpoint's share of a
//     call whose context carries none, enforced by orb's context-aware
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
//     races it at the next endpoint the call may use — another
//     connection of a pool, the next ranked member of a fleet — and the
//     first success wins, masking a slow or silently dead endpoint
//     without waiting out the deadline.
//
// Every call is one Call — key, op, body and a kind — run by one attempt
// loop, Walk, along a Route: a pool is a route of one endpoint, a fleet
// (internal/cluster) a ranked route through its members. What a failure
// means for the loop is one table, Classify. A stream is a kind of call,
// not a second API: it shares the deadline, the loop, the budget and the
// pool with a buffered call, and differs in the one line that talks to
// orb and in never being hedged.
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
	"slices"
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
	// CallTimeout bounds one endpoint's share of a call whose context
	// has no deadline (default 15s; negative disables).
	CallTimeout time.Duration
	// MaxAttempts bounds the attempts one endpoint gets in a call, the
	// first included (default 3).
	MaxAttempts int
	// Hedge enables request hedging: a duplicate attempt is raced at the
	// next endpoint once a call outlives the adaptive hedge delay. Only
	// enable against idempotent services.
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
	// Retries counts attempts that revisit this endpoint, each after a
	// backoff.
	Retries int64 `json:"retries"`
	// Overloads counts attempts shed by the server with orb.ErrOverloaded.
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

	lat *Window

	live Stats // bumped with sync/atomic; Stats loads it
}

// New returns a Client for addr. Connections are dialed lazily on first
// use; dial failures surface from the calls that need them.
func New(addr string, opts Options) *Client {
	c := &Client{
		addr:   addr,
		opts:   opts.withDefaults(),
		dialed: make(chan struct{}),
		lat:    NewWindow(128),
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
// in-flight. A hedge so lands on another connection than its primary's
// unless every connection carries a call.
func (c *Client) acquire(ctx context.Context) (*pconn, error) {
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

// Do runs call on this Client's pool: Walk along a route of one endpoint.
func (c *Client) Do(ctx context.Context, call Call) (Result, error) {
	return Walk(ctx, alone{c}, call)
}

// Class is what a failed attempt means for the rest of its call.
type Class uint8

// The bits of a Class.
const (
	Again     Class = 1 << iota // another attempt, here or elsewhere, may succeed
	Elsewhere                   // only another endpoint can help
	Condemn                     // the attempt's connection is not reused
	Strike                      // a strike against the endpoint's health (a fleet member's breaker)
	Dup                         // the request may still be running there: moving it on duplicates load
)

// Classify is the one table every decision about a failed attempt reads.
func Classify(err error) Class {
	var re *orb.RemoteError
	switch {
	// The caller's budget is spent, the server answered and another
	// would answer the same, or the other attempt of a hedge race won,
	// over a connection that stays healthy.
	case errors.Is(err, orb.ErrExpired), errors.As(err, &re), errors.Is(err, orb.ErrServerPanic),
		errors.Is(err, orb.ErrFrameTooLarge), errors.Is(err, ErrRetryBudget), errors.Is(err, ErrLost):
		return 0
	// Not served here (no such object, a universe not loaded), or a pool
	// closed under the call.
	case errors.Is(err, orb.ErrUnavailable), errors.Is(err, ErrClosed):
		return Elsewhere
	// Shed before dispatch: safe to repeat after a backoff. A shedding
	// member is struggling, and moving its load on pays as a duplicate.
	case errors.Is(err, orb.ErrOverloaded):
		return Again | Strike | Dup
	// The endpoint's share of the call ran out, as a stalled member's does.
	case errors.Is(err, orb.ErrDeadline):
		return Elsewhere | Condemn | Strike | Dup
	case errors.Is(err, orb.ErrCanceled):
		return Condemn
	}
	return Again | Condemn | Strike // dial failures, resets, a pool with no usable connection
}

// A Route is the sequence of endpoints one call may use, best first: a
// Client alone is a route of one; a fleet ranks its members by key.
type Route interface {
	Len() int           // at least 1
	Pool(i int) *Client // endpoint i's pool
	Admit(i int) bool   // whether i takes a call's first attempt there (a breaker may refuse)
	// Begin books an attempt's start at i; moved marks a call's first
	// attempt there after one elsewhere failed.
	Begin(i int, moved bool)
	// Settle books an attempt's end at i: err nil on success, ErrLost for
	// a hedge race's loser; d its latency (for a loser, a lower bound), or
	// 0 for a failed acquire or the end of an opened stream.
	Settle(i int, err error, d time.Duration)
	// Exhausted is the error of a call whose attempts all failed, the
	// last with err.
	Exhausted(attempts int, err error) error
}

// alone is a Client as a route of one endpoint.
type alone struct{ c *Client }

func (a alone) Len() int                       { return 1 }
func (a alone) Pool(int) *Client               { return a.c }
func (alone) Admit(int) bool                   { return true }
func (alone) Begin(int, bool)                  {}
func (alone) Settle(int, error, time.Duration) {}
func (a alone) Exhausted(n int, err error) error {
	return fmt.Errorf("resil: %d attempts to %s failed: %w", n, a.c.addr, err)
}

// visit is what a call has done at one endpoint of its route.
type visit struct {
	tries       int       // attempts made there
	dl          time.Time // the end of the endpoint's share; zero: the caller's deadline rules
	done, force bool      // no further attempt there; the fail-static attempt, past a refusal
}

// Walk runs call along r; it is the one attempt loop. Every endpoint r
// admits gets an attempt before any is revisited. Only a revisit backs
// off, and it spends a retry-budget token, as does a move on after a Dup
// failure; a dry budget ends the call with ErrRetryBudget. MaxAttempts
// bounds the attempts each endpoint gets, CallTimeout each endpoint's
// share of a call whose context has no deadline. A buffered call with
// Hedge races a copy at the next endpoint it may use, or on another
// connection when none is left. When r admits no endpoint (a fleet whose
// breakers are all open) the first is tried anyway: failing static beats
// a certain outage, and a healed member answers the probe. A failure no
// other attempt can help is returned as it is; running out of attempts,
// r.Exhausted.
func Walk(ctx context.Context, r Route, call Call) (Result, error) {
	var stack [4]visit
	vs := stack[:0]
	if n := r.Len(); n <= len(stack) {
		vs = stack[:n]
	} else {
		vs = make([]visit, n)
	}
	attempts, paid := 0, false
	var last error
	var lastClass Class
	for pass := 0; ; pass++ {
		progressed := false
		for i := range vs {
			v, p := &vs[i], r.Pool(i)
			if v.done || v.tries > pass || v.tries >= p.opts.MaxAttempts {
				continue // a hedge's target is revisited on the next pass, not this one
			}
			revisit := v.tries > 0
			if (revisit || lastClass&Dup != 0) && !paid {
				if !p.opts.RetryBudget.Withdraw() {
					atomic.AddInt64(&p.live.BudgetExhausted, 1)
					return Result{}, fmt.Errorf("%w: after %d attempts: %w", ErrRetryBudget, attempts, last)
				}
				paid = true
			}
			if revisit {
				atomic.AddInt64(&p.live.Retries, 1)
				if p.backoff(bound(ctx, v.dl), v.tries) != nil {
					v.done = true // the call's time cannot outlast the backoff
					continue
				}
			} else if !v.force && !r.Admit(i) {
				v.done = true
				continue
			} else {
				v.dl = p.share(ctx)
			}
			paid, progressed = false, true
			attempts++
			v.tries++
			r.Begin(i, !revisit && attempts > 1)
			res, err := hedged(ctx, r, vs, i, call)
			if err == nil {
				p.opts.RetryBudget.Deposit()
				return res, nil
			}
			class := Classify(err)
			if errors.Is(err, orb.ErrOverloaded) {
				atomic.AddInt64(&p.live.Overloads, 1)
			}
			if ctx.Err() != nil || class&(Again|Elsewhere) == 0 || class&Again == 0 && len(vs) == 1 {
				return Result{}, err
			}
			v.done = class&Again == 0
			last, lastClass = err, class
		}
		if pass == 0 && attempts == 0 {
			vs[0], progressed = visit{force: true}, true
		}
		if !progressed {
			return Result{}, r.Exhausted(attempts, last)
		}
	}
}

// share is the end of an endpoint's share of a call, zero when the
// caller's context carries its own deadline.
func (c *Client) share(ctx context.Context) time.Time {
	if _, ok := ctx.Deadline(); ok || c.opts.CallTimeout <= 0 {
		return time.Time{}
	}
	return time.Now().Add(c.opts.CallTimeout)
}

// bound is ctx under the endpoint deadline dl, when there is one.
func bound(ctx context.Context, dl time.Time) context.Context {
	if dl.IsZero() {
		return ctx
	}
	return &deadlineCtx{Context: ctx, dl: dl}
}

// attempt runs call once at endpoint i of r, on a connection of its pool
// c — the one place the two kinds differ — and books the outcome on the
// pool and on r; for an opened stream, at the caller's Done.
func (c *Client) attempt(ctx context.Context, r Route, i int, call Call) (res Result, err error) {
	pc, err := c.acquire(ctx)
	if err != nil {
		r.Settle(i, lost(ctx, err), 0)
		return res, err
	}
	start := time.Now()
	if call.Kind == Stream {
		res.Stream, err = pc.c.OpenStream(ctx, call.Key, call.Op)
	} else {
		res.Reply, err = pc.c.InvokeContext(ctx, call.Key, call.Op, call.Body)
	}
	d, booked := time.Since(start), lost(ctx, err)
	switch {
	case err != nil:
		c.settle(pc, booked)
	case res.Stream != nil:
		res.Done = func(err error) {
			c.settle(pc, err)
			r.Settle(i, err, 0)
		}
		return res, nil
	default:
		c.release(pc)
		c.lat.Record(d)
	}
	r.Settle(i, booked, d)
	return res, err
}

// ErrLost is how an attempt a hedge race's winner canceled is booked: a
// dial or call cut short says nothing about its endpoint.
var ErrLost = errors.New("resil: hedge race lost")

// lost is err, or ErrLost when err ended a hedge race's loser.
func lost(ctx context.Context, err error) error {
	if err != nil && context.Cause(ctx) == ErrLost {
		return ErrLost
	}
	return err
}

// settle returns pc to the pool after a call that ended with err, or
// discards it when err condemns the connection.
func (c *Client) settle(pc *pconn, err error) {
	c.release(pc)
	if err != nil && Classify(err)&Condemn != 0 {
		c.discard(pc)
	}
}

// hedged runs the attempt at endpoint i of r. For a buffered call with
// Hedge, once the hedge delay passes, a copy races it at hedgeTarget; the
// first success wins and the loser is canceled.
func hedged(ctx context.Context, r Route, vs []visit, i int, call Call) (Result, error) {
	p := r.Pool(i)
	if !p.opts.Hedge || call.Kind != Buffered {
		return p.attempt(bound(ctx, vs[i].dl), r, i, call)
	}
	// The losing attempt's goroutine can outlive this call, and callers
	// under orb body pooling may recycle body the moment we return —
	// race the duplicates over a private copy.
	if len(call.Body) > 0 {
		call.Body = append([]byte(nil), call.Body...)
	}
	hctx, cancel := context.WithCancelCause(ctx)
	defer cancel(ErrLost)
	type outcome struct {
		reply []byte
		err   error
		hedge bool
	}
	ch := make(chan outcome, 2)
	run := func(k int, q *Client, hedge bool) {
		actx := bound(hctx, vs[k].dl)
		go func() {
			res, err := q.attempt(actx, r, k, call)
			ch <- outcome{res.Reply, err, hedge}
		}()
	}
	run(i, p, false)
	fire := make(chan struct{}, 1)
	defer p.opts.clk.AfterFunc(p.hedgeDelay(), func() { fire <- struct{}{} }).Stop()
	hq, launched := p, 1
	var lastErr error
	for got := 0; got < launched; {
		select {
		case o := <-ch:
			got++
			if o.err == nil {
				if o.hedge {
					atomic.AddInt64(&hq.live.HedgeWins, 1)
				}
				return Result{Reply: o.reply}, nil
			}
			if lastErr == nil || !errors.Is(o.err, orb.ErrCanceled) {
				lastErr = o.err
			}
		case <-fire:
			// A hedge is a speculative retry; it spends the same budget
			// token a retry would. Refused hedges just let the primary run
			// to its own deadline.
			if !p.opts.RetryBudget.Withdraw() {
				atomic.AddInt64(&p.live.BudgetExhausted, 1)
				continue
			}
			j := hedgeTarget(r, vs, i)
			if hq = r.Pool(j); j != i {
				vs[j].tries, vs[j].dl = 1, hq.share(ctx)
			}
			r.Begin(j, false)
			atomic.AddInt64(&hq.live.Hedges, 1)
			run(j, hq, true)
			launched = 2
		}
	}
	return Result{}, lastErr
}

// hedgeTarget is the first endpoint after i that the call has not tried
// and r admits, or i (another connection there) when there is none.
func hedgeTarget(r Route, vs []visit, i int) int {
	for k := i + 1; k < len(vs); k++ {
		if !vs[k].done && vs[k].tries == 0 {
			if r.Admit(k) {
				return k
			}
			vs[k].done = true
		}
	}
	return i
}

// hedgeDelay is the time to let the primary run before hedging.
func (c *Client) hedgeDelay() time.Duration {
	if d, n := c.lat.Percentile(hedgePercentile); n >= 8 {
		return d
	}
	return 10 * time.Millisecond // too few samples to hedge on: the cold-start delay
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

// A Window holds an endpoint's last latencies for percentile reads: a
// pool's hedge delay, a fleet member's outlier check. Safe for concurrent
// use.
type Window struct {
	mu     sync.Mutex
	ring   []time.Duration
	sorted []time.Duration // Percentile's scratch
	n      int             // samples since the last Reset; the ring index is n % len(ring)
	p      float64         // the quantile at holds, 0 when none is
	at     time.Duration
}

// NewWindow returns a Window over the last size samples.
func NewWindow(size int) *Window {
	return &Window{ring: make([]time.Duration, size), sorted: make([]time.Duration, size)}
}

// Record adds a sample.
func (w *Window) Record(d time.Duration) {
	w.mu.Lock()
	w.ring[w.n%len(w.ring)] = d
	w.n++
	w.p = 0
	w.mu.Unlock()
}

// Reset forgets every sample.
func (w *Window) Reset() {
	w.mu.Lock()
	w.n, w.p = 0, 0
	w.mu.Unlock()
}

// Percentile returns the window's p-quantile and the number of samples
// it read. It sorts only after a Record: a quiet peer costs a read.
func (w *Window) Percentile(p float64) (time.Duration, int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := min(w.n, len(w.ring))
	if n == 0 {
		return 0, 0
	}
	if w.p != p {
		s := w.sorted[:n]
		copy(s, w.ring)
		slices.Sort(s)
		w.p, w.at = p, s[int(p*float64(n-1))]
	}
	return w.at, n
}
