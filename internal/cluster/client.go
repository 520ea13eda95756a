package cluster

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/metrics"
	"repro/internal/orb"
	"repro/internal/resil"
)

// ErrNoMembers is returned by calls on a Client with an empty member
// list.
var ErrNoMembers = errors.New("cluster: no members")

// The fleet's fixed tunings: one value each is in use, so none is an
// option.
const (
	// replicas is how many ring positions per key (owner + successors)
	// take warm pushes and may take spillover. Spillover stays inside the
	// replica set because those are the members warm pushes target — a
	// spilled request still lands on a warm cache.
	replicas = 2
	// spillInflight is the in-flight gap between the owner and the least
	// loaded replica past which a request spills over.
	spillInflight = 16
	// DrainTimeout bounds the graceful drain of a departed member's pool
	// (and of a gateway's retired upstream); past it the pool closes
	// forcibly.
	DrainTimeout = 30 * time.Second
	// outlierFactor ejects a member whose success-latency p99 exceeds this
	// multiple of the median of its peers' p99s.
	outlierFactor = 3
	// A member's breaker opens after breakerFailures consecutive transport
	// failures and half-opens for a single probe breakerCooldown later.
	breakerFailures = 5
	breakerCooldown = 2 * time.Second
)

// Options configures a cluster Client. Zero values select the defaults.
type Options struct {
	// Resil tunes the per-member connection pool (deadlines, retries,
	// hedging) — each member gets its own resil.Client built from this.
	Resil resil.Options
}

func (o Options) withDefaults() Options {
	// One retry budget spans every member pool, making the retry cap a
	// fleet-wide invariant instead of a per-endpoint one.
	if o.Resil.RetryBudget == nil {
		o.Resil.RetryBudget = resil.NewRetryBudget(0, 0)
	}
	return o
}

// member is one fleet endpoint: its pool and the cluster-level in-flight
// gauge the spillover decision reads (resil tracks per-connection
// in-flight internally; this tracks per-member).
type member struct {
	addr     string
	pool     *resil.Client
	inflight atomic.Int64
	brk      *breaker
}

// Client is a multi-endpoint broker client: requests route by
// content-derived key to their ring owner, spill to replicas under load
// imbalance, and fail over down the rank when members are unreachable.
// Safe for concurrent use.
type Client struct {
	opts Options

	mu      sync.Mutex
	members map[string]*member
	closed  bool

	ring atomic.Pointer[Ring]

	live Stats // bumped with sync/atomic; Stats loads it
}

// New returns a Client over the given member addresses. Pools dial
// lazily; an empty list is legal and can be fixed later with SetMembers.
func New(addrs []string, opts Options) *Client {
	c := &Client{
		opts:    opts.withDefaults(),
		members: make(map[string]*member),
	}
	c.ring.Store(NewRing(nil))
	c.SetMembers(addrs)
	return c
}

// SetMembers replaces the member list. New members get fresh pools;
// members leaving the ring have their pools drained in the background —
// in-flight calls finish, then the pool closes — rather than erroring
// out on next use.
func (c *Client) SetMembers(addrs []string) {
	ring := NewRing(addrs)
	keep := make(map[string]bool, ring.Len())
	for _, a := range ring.Members() {
		keep[a] = true
	}
	var drain []*member
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	for addr, m := range c.members {
		if !keep[addr] {
			drain = append(drain, m)
			delete(c.members, addr)
		}
	}
	for addr := range keep {
		if c.members[addr] == nil {
			c.members[addr] = &member{
				addr: addr,
				pool: resil.New(addr, c.opts.Resil),
				brk:  newBreaker(clock.Real),
			}
		}
		// Surviving members keep their member struct, so breaker state
		// (and its latency window) persists across membership changes.
	}
	c.ring.Store(ring)
	c.mu.Unlock()
	for _, m := range drain {
		go func(m *member) {
			ctx, cancel := context.WithTimeout(context.Background(), DrainTimeout)
			defer cancel()
			_ = m.pool.Drain(ctx)
		}(m)
	}
}

// Members returns the current member addresses, sorted.
func (c *Client) Members() []string { return c.ring.Load().Members() }

// Close tears down every member pool immediately.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	members := c.members
	c.members = map[string]*member{}
	c.mu.Unlock()
	c.ring.Store(NewRing(nil))
	for _, m := range members {
		_ = m.pool.Close()
	}
	return nil
}

// MemberStats is one member's counter snapshot.
type MemberStats struct {
	Addr     string
	InFlight int64
	// Breaker is the member's circuit state ("closed", "open",
	// "half-open"); BreakerTrips counts how often it has opened.
	Breaker      string
	BreakerTrips int64
	Pool         resil.Stats
}

// Stats is a point-in-time snapshot of the Client's counters.
type Stats struct {
	// Members holds one entry per member, sorted by address.
	Members []MemberStats
	// Spills counts requests routed to a replica instead of the loaded
	// owner; Failovers counts attempts moved down the rank after a
	// member failed.
	Spills, Failovers int64
	// BreakerTrips counts breaker openings across all members;
	// BreakerSkips counts ranked members passed over because their
	// breaker was open.
	BreakerTrips, BreakerSkips int64
}

// Stats returns a snapshot of the Client's counters.
func (c *Client) Stats() Stats {
	st := metrics.Load(&c.live)
	c.mu.Lock()
	for _, m := range c.members {
		state, trips := m.brk.snapshot()
		st.Members = append(st.Members, MemberStats{
			Addr:         m.addr,
			InFlight:     m.inflight.Load(),
			Breaker:      state,
			BreakerTrips: trips,
			Pool:         m.pool.Stats(),
		})
	}
	c.mu.Unlock()
	sort.Slice(st.Members, func(i, j int) bool { return st.Members[i].Addr < st.Members[j].Addr })
	return st
}

// Do performs one fleet call of either kind routed by rk, as resil.Walk
// runs a call over its route: the members ranked for rk. The owner serves
// it unless its in-flight load exceeds the least loaded replica's by more
// than spillInflight, in which case the request spills to that replica
// (still inside the warm replica set). Members whose circuit breaker is
// open are skipped outright, so their traffic spills down the rank
// without paying a timeout first. Unreachable or unable members fail the
// request over to the next ranked member — beyond the replica set if
// necessary — so a single dead daemon costs latency, not errors. A nil rk
// routes to the least loaded member (for keyless ops).
//
// For a stream all of this applies to the open — the phase before any
// chunk is committed to a member — and stops the moment the stream is
// handed back: a mid-stream failure cannot replay chunks on a replica,
// so it surfaces to the caller as a typed terminal error instead.
func (c *Client) Do(ctx context.Context, rk []byte, call resil.Call) (resil.Result, error) {
	ring := c.ring.Load()
	order := ring.members // read only: a Ring never changes
	if rk != nil {
		order = ring.Ranked(rk)
	}
	r := &route{c: c, members: make([]*member, 0, len(order))}
	c.mu.Lock()
	for _, addr := range order {
		if m := c.members[addr]; m != nil { // nil when SetMembers raced; the ring will catch up
			r.members = append(r.members, m)
		}
	}
	c.mu.Unlock()
	switch ms := r.members; {
	case len(ms) == 0:
		return resil.Result{}, ErrNoMembers
	case rk == nil:
		// Keyless ops (stats, health): any member answers, the least loaded first.
		sort.Slice(ms, func(i, j int) bool { return ms[i].inflight.Load() < ms[j].inflight.Load() })
	default:
		c.applySpill(ms)
	}
	return resil.Walk(ctx, r, call)
}

// route is one call's ranked members as a resil.Route: an attempt at a
// member holds its in-flight gauge (an opened stream until its Done, so
// spill sees long streams as load), and its outcome goes to the member's
// breaker and latency window.
type route struct {
	c       *Client
	members []*member
}

func (r *route) Len() int { return len(r.members) }

func (r *route) Pool(i int) *resil.Client { return r.members[i].pool }

func (r *route) Admit(i int) bool {
	if r.members[i].brk.allow() {
		return true
	}
	atomic.AddInt64(&r.c.live.BreakerSkips, 1)
	return false
}

func (r *route) Begin(i int, moved bool) {
	r.members[i].inflight.Add(1)
	if moved {
		atomic.AddInt64(&r.c.live.Failovers, 1)
	}
}

func (r *route) Settle(i int, err error, d time.Duration) {
	m := r.members[i]
	if err != nil || d == 0 {
		r.c.settle(m, err, d)
		return
	}
	m.inflight.Add(-1)
	r.c.noteLatency(m, d)
}

func (r *route) Exhausted(_ int, err error) error {
	return fmt.Errorf("cluster: all %d members failed: %w", len(r.members), err)
}

// settle ends m's part in an attempt that did not succeed after d (0 for
// a stream's end, whose lifetime is not comparable to call latency): it
// books err with the breaker, which opens only while the fleet can spare
// m — a lost hedge race gives it no verdict — banks a deadline or a lost
// race as a censored sample, and frees the in-flight slot.
func (c *Client) settle(m *member, err error, d time.Duration) {
	lost := err == resil.ErrLost
	trip := err != nil && resil.Classify(err)&resil.Strike != 0
	if lost {
		m.brk.abandon()
	} else if m.brk.failure(trip, trip && c.ejectable()) {
		atomic.AddInt64(&c.live.BreakerTrips, 1)
	}
	if d > 0 && (lost || errors.Is(err, orb.ErrDeadline)) {
		m.brk.lat.Record(d)
	}
	m.inflight.Add(-1)
}

// applySpill reorders the head of a ranked route: when the owner is
// carrying spillInflight more in-flight calls than the least loaded
// member of the replica set, that replica takes the front slot.
func (c *Client) applySpill(ms []*member) {
	best := 0
	for i := 1; i < min(replicas, len(ms)); i++ {
		if ms[i].inflight.Load() < ms[best].inflight.Load() {
			best = i
		}
	}
	if best != 0 && ms[0].inflight.Load()-ms[best].inflight.Load() > spillInflight {
		ms[0], ms[best] = ms[best], ms[0]
		atomic.AddInt64(&c.live.Spills, 1)
	}
}
