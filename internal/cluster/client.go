package cluster

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
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
	// One retry budget spans every member pool (and the cluster-level
	// failover loop), making the retry cap a fleet-wide invariant instead
	// of a per-endpoint one.
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

func (c *Client) member(addr string) *member {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.members[addr]
}

// failover reports whether an attempt's failure should move the request
// to the next ranked member. Connection-level failures and overload
// sheds obviously should. Two remote errors do too, because they mean
// "this member cannot serve this key right now", not "the request is
// wrong": a freshly restarted daemon that has not re-learned a universe
// ("core: no universe ..."), and a daemon still starting up that has not
// registered the service ("no object ..."). Every other remote error is
// a deterministic answer a replica would repeat.
func failover(err error) bool {
	if errors.Is(err, orb.ErrOverloaded) {
		return true
	}
	if errors.Is(err, orb.ErrExpired) || errors.Is(err, orb.ErrDeadline) || errors.Is(err, orb.ErrCanceled) {
		return false // the call's own budget is spent
	}
	var re *orb.RemoteError
	if errors.As(err, &re) {
		return strings.Contains(re.Msg, "core: no universe") || strings.Contains(re.Msg, "no object")
	}
	if errors.Is(err, orb.ErrServerPanic) || errors.Is(err, orb.ErrFrameTooLarge) {
		return false
	}
	return true // dial failures, conn resets, pool closed mid-drain, ...
}

// Do performs one fleet call of either kind routed by rk. The owner
// serves it unless its in-flight load exceeds the least loaded replica's
// by more than spillInflight, in which case the request spills to that
// replica (still inside the warm replica set). Members whose circuit
// breaker is open are skipped outright, so their traffic spills down the
// rank without paying a timeout first. Unreachable or unable members
// fail the request over to the next ranked member — beyond the replica
// set if necessary — so a single dead daemon costs latency, not errors.
// Failovers that may duplicate load on a struggling member (overload
// sheds, timeouts) each buy a token from the shared retry budget. A nil
// rk routes to the least loaded member (for keyless ops).
//
// For a stream all of this applies to the open — the phase before any
// chunk is committed to a member — and stops the moment the stream is
// handed back: a mid-stream failure cannot replay chunks on a replica,
// so it surfaces to the caller as a typed terminal error instead.
func (c *Client) Do(ctx context.Context, rk []byte, call resil.Call) (resil.Result, error) {
	ring := c.ring.Load()
	if ring.Len() == 0 {
		return resil.Result{}, ErrNoMembers
	}
	var order []string
	if rk == nil {
		order = c.leastLoadedOrder(ring)
	} else {
		order = ring.Ranked(rk)
		c.applySpill(order)
	}
	var lastErr error
	attempts := 0
	for _, addr := range order {
		m := c.member(addr)
		if m == nil {
			continue // raced SetMembers; the ring will catch up
		}
		if !m.brk.allow() {
			atomic.AddInt64(&c.live.BreakerSkips, 1)
			continue
		}
		res, err := c.onMember(ctx, m, &attempts, call)
		if err == nil {
			return res, nil
		}
		lastErr = err
		if !c.shouldFailover(ctx, err) {
			return resil.Result{}, err
		}
		if duplicative(err) && !c.opts.Resil.RetryBudget.Withdraw() {
			return resil.Result{}, fmt.Errorf("%w: abandoning cluster failover after: %w", resil.ErrRetryBudget, err)
		}
	}
	if attempts == 0 && lastErr == nil {
		// Every member's breaker refused the request: the whole fleet is
		// tripped. Fail static — force one attempt on the best ranked
		// member rather than turning a fully tripped fleet into a
		// guaranteed outage; if that member has healed, this is the
		// probe that proves it.
		for _, addr := range order {
			if m := c.member(addr); m != nil {
				return c.onMember(ctx, m, &attempts, call)
			}
		}
		return resil.Result{}, ErrNoMembers
	}
	return resil.Result{}, fmt.Errorf("cluster: all %d members failed: %w", len(order), lastErr)
}

// onMember sends one attempt to m, maintaining the in-flight gauge, the
// failover counter, and the member's breaker bookkeeping. An opened
// stream holds the member's in-flight slot until its Done, so spill
// decisions see long-lived streams as load, and books its outcome with
// the breaker then.
func (c *Client) onMember(ctx context.Context, m *member, attempts *int, call resil.Call) (resil.Result, error) {
	*attempts++
	if *attempts > 1 {
		atomic.AddInt64(&c.live.Failovers, 1)
	}
	m.inflight.Add(1)
	start := time.Now()
	res, err := m.pool.Do(ctx, call)
	switch {
	case err != nil:
		c.settle(m, err, time.Since(start))
	case res.Done != nil:
		poolDone := res.Done
		res.Done = func(callErr error) {
			poolDone(callErr)
			c.settle(m, callErr, 0)
		}
	default:
		m.inflight.Add(-1)
		c.noteLatency(m, time.Since(start))
	}
	return res, err
}

// settle ends m's part in a call that did not succeed after d (0 for a
// stream's end, whose lifetime is not comparable to call latency): it
// frees the in-flight slot, books err with the breaker, which opens only
// while the fleet can spare m, and banks a deadline as a censored sample.
func (c *Client) settle(m *member, err error, d time.Duration) {
	m.inflight.Add(-1)
	trip := err != nil && tripworthy(err)
	if m.brk.failure(trip, trip && c.ejectable()) {
		atomic.AddInt64(&c.live.BreakerTrips, 1)
	}
	if d > 0 && errors.Is(err, orb.ErrDeadline) {
		m.brk.censor(d)
	}
}

// shouldFailover extends failover()'s pure classification with the
// caller's clock: resil's per-attempt CallTimeout firing while the
// caller's own context still has time means a stalled member, not a
// spent budget, so the next ranked member gets the request.
func (c *Client) shouldFailover(ctx context.Context, err error) bool {
	if failover(err) {
		return true
	}
	return errors.Is(err, orb.ErrDeadline) && !errors.Is(err, orb.ErrExpired) && ctx.Err() == nil
}

// duplicative reports whether a failed attempt may have left work
// running on the member — overload sheds and timeouts, where the
// request was received — so failing over duplicates load and must buy a
// token from the shared retry budget. Connection-level failures never
// reached a server and fail over for free.
func duplicative(err error) bool {
	return errors.Is(err, orb.ErrOverloaded) || errors.Is(err, orb.ErrDeadline)
}

// applySpill reorders the head of a ranked member list: when the owner
// is carrying spillInflight more in-flight calls than the least loaded
// member of the replica set, that replica takes the front slot.
func (c *Client) applySpill(order []string) {
	n := min(replicas, len(order))
	if n < 2 {
		return
	}
	owner := c.member(order[0])
	if owner == nil {
		return
	}
	bestIdx, bestLoad := 0, owner.inflight.Load()
	for i := 1; i < n; i++ {
		if m := c.member(order[i]); m != nil {
			if l := m.inflight.Load(); l < bestLoad {
				bestIdx, bestLoad = i, l
			}
		}
	}
	if bestIdx != 0 && owner.inflight.Load()-bestLoad > spillInflight {
		order[0], order[bestIdx] = order[bestIdx], order[0]
		atomic.AddInt64(&c.live.Spills, 1)
	}
}

// leastLoadedOrder returns the members ordered by in-flight load, for
// keyless operations (stats, health) that any member can answer.
func (c *Client) leastLoadedOrder(ring *Ring) []string {
	load := func(addr string) int64 {
		if m := c.member(addr); m != nil {
			return m.inflight.Load()
		}
		return 0
	}
	order := ring.Members()
	sort.Slice(order, func(i, j int) bool { return load(order[i]) < load(order[j]) })
	return order
}
