// Per-member circuit breakers with outlier ejection. A breaker trips on
// health signals — consecutive transport-level failures, or a p99
// latency that is a multiplicative outlier against the rest of the
// fleet — and while open the ranked routing in Do skips the
// member, so its traffic spills down the rendezvous order to healthy
// replicas instead of queueing behind a stall. After a cooldown the
// breaker half-opens and admits a single probe: success closes it,
// failure re-opens it for another cooldown.
//
// Only a failure resil.Classify marks Strike counts against a member: a
// RemoteError, server panic, frame-limit rejection or "not served here"
// is the member *working* — it parsed the request and answered — and
// budget expiry (ErrExpired) and cancellation are the caller's clock, not
// the member's health. Tripping on those would eject healthy members
// whenever callers send bad requests or tight budgets.
package cluster

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/resil"
)

// Breaker states.
const (
	breakerClosed = iota
	breakerOpen
	breakerHalfOpen
)

// breakerStates are the states' stats strings.
var breakerStates = [...]string{breakerClosed: "closed", breakerOpen: "open", breakerHalfOpen: "half-open"}

// outlierMinSamples is how many latency samples a member needs before
// p99 outlier ejection may trip it; peers need a quarter of that to
// count toward the fleet baseline.
const outlierMinSamples = 32

// breaker is one member's circuit state. All methods are safe for
// concurrent use.
type breaker struct {
	clk      clock.Clock
	mu       sync.Mutex
	state    int
	failures int // consecutive tripworthy failures while closed
	openedAt time.Time
	probing  bool
	trips    int64

	// lat is the latency window outlier ejection reads: served calls and
	// calls cut off at their deadline.
	lat *resil.Window
}

func newBreaker(clk clock.Clock) *breaker { return &breaker{clk: clk, lat: resil.NewWindow(64)} }

// allow reports whether a request may be sent to the member. An open
// breaker past its cooldown transitions to half-open and admits exactly
// one probe; further requests are refused until the probe resolves.
func (b *breaker) allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if b.clk.Now().Sub(b.openedAt) >= breakerCooldown {
			b.state = breakerHalfOpen
			b.probing = true
			return true
		}
		return false
	default: // half-open
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

// success records a served call: it closes a half-open breaker, resets
// the failure streak, and banks the latency sample for outlier
// ejection.
func (b *breaker) success(d time.Duration) {
	b.mu.Lock()
	b.failures = 0
	b.probing = false
	b.state = breakerClosed
	b.mu.Unlock()
	b.lat.Record(d)
}

// failure records a failed call and reports whether it opened the
// breaker. Non-tripworthy failures count as health evidence (the member
// answered), closing a half-open breaker like a success would.
// Tripworthy ones extend the streak; crossing the threshold while
// mayOpen — or failing the half-open probe — opens the breaker. An open
// breaker ignores failures: they are calls admitted before it opened,
// ending late, and must not restart its cooldown or count another trip.
func (b *breaker) failure(trip, mayOpen bool) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == breakerOpen {
		return false
	}
	b.probing = false
	if !trip {
		b.failures = 0
		if b.state == breakerHalfOpen {
			b.state = breakerClosed
		}
		return false
	}
	b.failures++
	if b.state == breakerHalfOpen || b.failures >= breakerFailures && mayOpen {
		b.open()
		return true
	}
	return false
}

// abandon ends an admitted call that gave no verdict, a hedge race's
// loser: a half-open breaker may admit its next probe.
func (b *breaker) abandon() {
	b.mu.Lock()
	b.probing = false
	b.mu.Unlock()
}

// tripEject force-opens the breaker for latency outlier ejection and
// clears the sample window so the stale p99 cannot re-trip the breaker
// the moment the probe closes it.
func (b *breaker) tripEject() {
	b.mu.Lock()
	b.open()
	b.mu.Unlock()
	b.lat.Reset()
}

// open transitions to the open state. Caller holds b.mu.
func (b *breaker) open() {
	b.state = breakerOpen
	b.openedAt = b.clk.Now()
	b.failures = 0
	b.probing = false
	b.trips++
}

// snapshot returns the state name and trip count for stats.
func (b *breaker) snapshot() (string, int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return breakerStates[b.state], b.trips
}

// noteLatency records a member's successful-call latency and runs the
// outlier-ejection check: a member whose p99 exceeds
// outlierFactor times the median of its peers' p99s (given
// enough samples on both sides) is ejected — its breaker opens as if it
// had failed repeatedly, because "succeeding, but several times slower
// than everyone else" is exactly the gray failure consecutive-error
// counting cannot see.
func (c *Client) noteLatency(m *member, d time.Duration) {
	m.brk.success(d)
	p99, n := m.brk.lat.Percentile(0.99)
	if n < outlierMinSamples {
		return
	}
	var peers []float64
	c.mu.Lock()
	for _, o := range c.members {
		if o == m {
			continue
		}
		if op99, on := o.brk.lat.Percentile(0.99); on >= outlierMinSamples/4 {
			peers = append(peers, float64(op99))
		}
	}
	c.mu.Unlock()
	if len(peers) < 2 {
		return // one peer's p99 is no fleet baseline
	}
	sort.Float64s(peers)
	med := peers[len(peers)/2]
	if med > 0 && float64(p99) > outlierFactor*med && c.ejectable() {
		m.brk.tripEject()
		atomic.AddInt64(&c.live.BreakerTrips, 1)
	}
}

// ejectable reports whether one more member may leave the closed state:
// ejection never leaves fewer than half the members closed, as Envoy's
// max_ejection_percent bounds outlier detection.
func (c *Client) ejectable() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	closed := 0
	for _, o := range c.members {
		if state, _ := o.brk.snapshot(); state == "closed" {
			closed++
		}
	}
	return 2*(closed-1) >= len(c.members)
}
