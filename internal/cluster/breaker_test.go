package cluster

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/orb"
	"repro/internal/resil"
	"repro/internal/testutil"
)

// strikes reports n failures that strike to b and whether the last opened it.
func strikes(b *breaker, n int) (opened bool) {
	for i := 0; i < n; i++ {
		opened = b.failure(true, true)
	}
	return opened
}

func TestBreakerConsecutiveFailuresAndProbe(t *testing.T) {
	clk := testutil.NewClock()
	b := newBreaker(clk)
	// A streak one short, then a success: the streak resets.
	strikes(b, breakerFailures-1)
	b.success(time.Millisecond)
	if state, _ := b.snapshot(); state != "closed" {
		t.Fatalf("state = %s after success reset", state)
	}
	// breakerFailures consecutive strikes open the breaker (the last
	// reports it).
	if !strikes(b, breakerFailures) {
		t.Fatal("a full streak did not open the breaker")
	}
	// Calls admitted before it opened fail late: an open breaker ignores
	// them, so they neither count a trip nor restart the cooldown.
	clk.Advance(breakerCooldown / 2)
	if strikes(b, breakerFailures) {
		t.Fatal("late failures re-opened an open breaker")
	}
	if state, trips := b.snapshot(); state != "open" || trips != 1 {
		t.Fatalf("state = %s trips = %d after late failures, want open with 1 trip", state, trips)
	}
	clk.Advance(breakerCooldown/2 - time.Nanosecond)
	if b.allow() {
		t.Fatal("open breaker admitted a request inside its cooldown")
	}
	// One cooldown after the first opening: half-open, exactly one probe.
	clk.Advance(time.Nanosecond)
	if !b.allow() {
		t.Fatal("breaker refused the half-open probe after cooldown")
	}
	if state, _ := b.snapshot(); state != "half-open" {
		t.Fatalf("state = %s, want half-open", state)
	}
	if b.allow() {
		t.Fatal("half-open breaker admitted a second concurrent probe")
	}
	// A failed probe re-opens immediately, no streak needed.
	if !b.failure(true, true) {
		t.Fatal("failed probe did not re-open the breaker")
	}
	if b.allow() {
		t.Fatal("re-opened breaker admitted a request")
	}
	// Next cooldown, successful probe: closed again.
	clk.Advance(breakerCooldown)
	if !b.allow() {
		t.Fatal("breaker refused the second probe")
	}
	b.success(time.Millisecond)
	if state, trips := b.snapshot(); state != "closed" || trips != 2 {
		t.Fatalf("state = %s trips = %d, want closed with 2 trips", state, trips)
	}
	if !b.allow() {
		t.Fatal("closed breaker refused traffic")
	}
}

// A non-tripworthy failure is evidence the member answered: it resets
// the streak and closes a half-open breaker like a success would.
func TestBreakerNonTripworthyFailureHeals(t *testing.T) {
	clk := testutil.NewClock()
	b := newBreaker(clk)
	strikes(b, breakerFailures-1)
	b.failure(false, false)
	if strikes(b, breakerFailures-1) {
		t.Fatal("streak survived a non-tripworthy failure")
	}
	b.failure(true, true) // a full streak since the answer: open
	if b.allow() {
		t.Fatal("breaker should be open")
	}
	clk.Advance(breakerCooldown)
	if !b.allow() {
		t.Fatal("probe refused")
	}
	b.failure(false, false) // the probe reached the member and got an answer
	if state, _ := b.snapshot(); state != "closed" {
		t.Fatalf("state = %s, want closed after a deterministic-answer probe", state)
	}
}

// A member whose success p99 is a multiplicative outlier against its
// peers is ejected even though every call succeeds — the gray failure
// consecutive-error counting cannot see.
func TestBreakerOutlierEjection(t *testing.T) {
	addrs := []string{"127.0.0.1:11", "127.0.0.1:12", "127.0.0.1:13"}
	c := New(addrs, Options{})
	defer c.Close()

	slow := c.members[addrs[0]]
	// Peers bank enough fast samples to form the fleet baseline.
	for i := 0; i < outlierMinSamples; i++ {
		c.noteLatency(c.members[addrs[1]], time.Millisecond)
		c.noteLatency(c.members[addrs[2]], time.Millisecond)
	}
	for i := 0; i < outlierMinSamples; i++ {
		c.noteLatency(slow, 100*time.Millisecond)
	}
	if state, _ := slow.brk.snapshot(); state != "open" {
		t.Fatalf("outlier member state = %s, want open", state)
	}
	if c.Stats().BreakerTrips < 1 {
		t.Error("ejection not counted in BreakerTrips")
	}
	healthy := c.members[addrs[1]]
	if state, _ := healthy.brk.snapshot(); state != "closed" {
		t.Errorf("healthy peer state = %s, want closed", state)
	}
}

// An open breaker reroutes keyed traffic: the dead member is skipped
// without paying a dial failure once its breaker opens, and every call
// still succeeds on the survivors.
func TestBreakerSkipsDeadMember(t *testing.T) {
	addrs, servers, calls := echoFleet(t, 3)
	opts := testOpts()
	opts.Resil.MaxAttempts = 1
	opts.Resil.RetryBudget = resil.NewRetryBudget(0.1, 10)
	c := New(addrs, opts)
	defer c.Close()

	dead := addrs[0]
	_ = servers[dead].Close()

	// Find a key the dead member owns so every call has to fail over.
	var rk []byte
	for i := 0; i < 512; i++ {
		k := RouteKey("breaker", fmt.Sprint(i))
		if NewRing(addrs).Ranked(k)[0] == dead {
			rk = k
			break
		}
	}
	if rk == nil {
		t.Fatal("no key routed to the dead member")
	}
	for i := 0; i < 12; i++ {
		if _, err := echo(c, resil.Buffered, rk); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	st := c.Stats()
	if st.BreakerTrips < 1 {
		t.Error("dead member's breaker never tripped")
	}
	if st.BreakerSkips < 1 {
		t.Error("open breaker never skipped the dead member")
	}
	for _, m := range st.Members {
		if m.Addr == dead {
			if m.Breaker != "open" {
				t.Errorf("dead member breaker = %s, want open", m.Breaker)
			}
			if calls[dead].Load() != 0 {
				t.Errorf("dead member served %d calls", calls[dead].Load())
			}
		}
	}
	// Dial failures are connection-level: cluster failover must not have
	// spent retry-budget tokens on them, so the budget is still full.
	if !opts.Resil.RetryBudget.Withdraw() {
		t.Error("connection-level failovers drained the retry budget")
	}
}

// TestBreakerEjectionTable drives a fleet's breakers with no network and
// no sleeping. Each round, every member whose breaker admits a call
// serves one the way its kind does, then the fake clock moves 1ms, so no
// cooldown ends inside a row. A healthy member answers in 1ms; a slow one
// in 2 and 4ms by turns (three times a healthy member's mean); a failing
// one fails in transport at once; a stalled one runs into the 200ms call
// deadline; a flaky one does that on every other call and answers the
// rest in 1ms. Each row gives the breaker trips every member ends with.
func TestBreakerEjectionTable(t *testing.T) {
	const deadline = 200 * time.Millisecond
	rows := []struct {
		members string
		rounds  int
		want    string
	}{
		{"healthy healthy healthy", 64, "0 0 0"},
		{"healthy healthy slow", 16, "0 0 0"}, // under outlierMinSamples
		{"healthy healthy slow", 64, "0 0 1"},
		{"healthy healthy healthy healthy slow", 64, "0 0 0 0 1"},
		{"stalled healthy healthy slow", 64, "1 0 0 1"},
		// One peer's p99 is no baseline.
		{"healthy slow", 64, "0 0"},
		{"stalled healthy slow", 64, "1 0 0"},
		{"stalled healthy healthy", 64, "1 0 0"},
		{"failing healthy healthy", 64, "1 0 0"},
		// Ejection leaves at least half the members closed.
		{"failing failing healthy", 64, "1 0 0"},
		{"stalled stalled healthy healthy", 64, "1 1 0 0"},
		{"stalled failing healthy", 256, "1 0 0"},
		// Never five failures in a row, and every success is fast: only
		// the censored samples at the deadline show the member's p99.
		{"flaky healthy healthy", 64, "1 0 0"},
	}
	for _, row := range rows {
		kinds := strings.Fields(row.members)
		t.Run(fmt.Sprintf("%s/%d", strings.Join(kinds, ","), row.rounds), func(t *testing.T) {
			clk := testutil.NewClock()
			c := &Client{members: map[string]*member{}}
			ms := make([]*member, len(kinds))
			for i := range ms {
				ms[i] = &member{addr: fmt.Sprint(i), brk: newBreaker(clk)}
				c.members[ms[i].addr] = ms[i]
			}
			for round := 0; round < row.rounds; round++ {
				for i, m := range ms {
					if !m.brk.allow() {
						continue
					}
					m.inflight.Add(1)
					switch kinds[i] {
					case "healthy":
						m.inflight.Add(-1)
						c.noteLatency(m, time.Millisecond)
					case "slow":
						m.inflight.Add(-1)
						c.noteLatency(m, time.Duration(2+2*(round%2))*time.Millisecond)
					case "failing":
						c.settle(m, orb.ErrConnClosed, time.Millisecond)
					case "stalled":
						c.settle(m, orb.ErrDeadline, deadline)
					case "flaky":
						if round%2 == 0 {
							c.settle(m, orb.ErrDeadline, deadline)
						} else {
							m.inflight.Add(-1)
							c.noteLatency(m, time.Millisecond)
						}
					default:
						t.Fatalf("unknown member kind %q", kinds[i])
					}
				}
				clk.Advance(time.Millisecond)
			}
			got := make([]string, len(ms))
			for i, m := range ms {
				_, trips := m.brk.snapshot()
				got[i] = fmt.Sprint(trips)
			}
			if g := strings.Join(got, " "); g != row.want {
				t.Errorf("trips = %s, want %s", g, row.want)
			}
		})
	}
}
