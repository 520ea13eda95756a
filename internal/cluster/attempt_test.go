package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/broker"
	"repro/internal/core"
	"repro/internal/orb"
	"repro/internal/proto"
	"repro/internal/resil"
)

// failingEndpoint starts an endpoint whose "echo" fails one way, and
// returns its address; calls may adjust the call the row sends.
type failingEndpoint struct {
	name  string
	start func(t *testing.T, call *resil.Call, cancel func()) string
}

// orbFailing serves "echo" with h.
func orbFailing(t *testing.T, h orb.Handler) string {
	t.Helper()
	srv, err := orb.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	srv.Register("echo", h)
	return srv.Addr()
}

// rawEndpoint accepts connections until the test ends and hands each to
// serve, closing it after.
func rawEndpoint(t *testing.T, serve func(net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				serve(conn)
				_ = conn.Close()
			}()
		}
	}()
	return ln.Addr().String()
}

// parked blocks a handler until its call is canceled, telling entered.
func parked(entered func()) orb.Handler {
	return func(ctx context.Context, op uint32, body []byte) ([]byte, error) {
		entered()
		<-ctx.Done()
		return nil, ctx.Err()
	}
}

var failingEndpoints = []failingEndpoint{
	{"dial refused", func(t *testing.T, _ *resil.Call, _ func()) string {
		addrs, servers, _ := echoFleet(t, 1)
		_ = servers[addrs[0]].Close()
		return addrs[0]
	}},
	// The request's first byte arrives, then the connection goes.
	{"reset mid-call", func(t *testing.T, _ *resil.Call, _ func()) string {
		return rawEndpoint(t, func(conn net.Conn) { _, _ = conn.Read(make([]byte, 1)) })
	}},
	{"overload shed", func(t *testing.T, _ *resil.Call, _ func()) string {
		return orbFailing(t, func(context.Context, uint32, []byte) ([]byte, error) {
			return nil, fmt.Errorf("%w: full", orb.ErrOverloaded)
		})
	}},
	// The request is taken in and never answered, until the client
	// gives the connection up.
	{"stalled to the deadline", func(t *testing.T, _ *resil.Call, _ func()) string {
		return rawEndpoint(t, func(conn net.Conn) { _, _ = io.Copy(io.Discard, conn) })
	}},
	{"budget expired", func(t *testing.T, _ *resil.Call, _ func()) string {
		return orbFailing(t, func(context.Context, uint32, []byte) ([]byte, error) {
			return nil, fmt.Errorf("%w: budget spent", orb.ErrExpired)
		})
	}},
	{"caller cancel", func(t *testing.T, _ *resil.Call, cancel func()) string {
		return orbFailing(t, parked(cancel))
	}},
	{"remote error", func(t *testing.T, _ *resil.Call, _ func()) string {
		return orbFailing(t, func(context.Context, uint32, []byte) ([]byte, error) {
			return nil, errors.New("boom: bad request")
		})
	}},
	// A broker that has not loaded the universes the compare names, as a
	// restarted member has not.
	{"no universe", func(t *testing.T, call *resil.Call, _ func()) string {
		call.Op, call.Body = broker.OpCompare, proto.MarshalStrings("ux", "mix", "uy", "pair")
		return orbFailing(t, broker.Handler(broker.New(core.NewSession(), broker.Options{})))
	}},
	{"server panic", func(t *testing.T, _ *resil.Call, _ func()) string {
		return orbFailing(t, func(context.Context, uint32, []byte) ([]byte, error) { panic("kaboom") })
	}},
	// Refused by the client before a byte is written.
	{"frame too large", func(t *testing.T, call *resil.Call, _ func()) string {
		call.Key = strings.Repeat("k", orb.DefaultMaxKey+1)
		addrs, _, _ := echoFleet(t, 1)
		return addrs[0]
	}},
}

const pinReserve = 10

// pinOpts are the options every row runs under: the gateway's default
// of three attempts, and a budget whose spend the row reads back.
func pinOpts() resil.Options {
	return resil.Options{
		MaxAttempts: 3,
		DialTimeout: 2 * time.Second,
		CallTimeout: 300 * time.Millisecond,
		RetryBudget: resil.NewRetryBudget(0.1, pinReserve),
	}
}

// spent drains b and reports how many of its reserve tokens were gone.
func spent(b *resil.RetryBudget) int {
	n := 0
	for ; n < pinReserve && b.Withdraw(); n++ {
	}
	return pinReserve - n
}

// ownedBy returns a route key whose ring owner among addrs is addr.
func ownedBy(t *testing.T, addrs []string, addr string) []byte {
	t.Helper()
	for i := 0; i < 4096; i++ {
		if rk := RouteKey("pin", fmt.Sprint(i)); NewRing(addrs).Owner(rk) == addr {
			return rk
		}
	}
	t.Fatal("no key owned by the failing member")
	return nil
}

// TestAttemptTable pins what one call costs when its endpoint fails, per
// failure, against one endpoint and against a fleet of three whose ring
// owner is the failing one and whose replicas answer. Attempts are the
// endpoints tried plus the retries and hedges the pools count; every
// retry waits one backoff; condemned connections are the pools'
// discards; strikes are the members' breaker streaks; tokens are what
// the shared retry budget lost. No row sleeps: the clock only runs in
// backoffs, dials and the stalled row's deadline.
func TestAttemptTable(t *testing.T) {
	const want = `
dial refused             one endpoint  attempts 3  members 1  backoffs 2  condemned 0  strikes -  tokens 2  error
dial refused             fleet of 3    attempts 2  members 2  backoffs 0  condemned 0  strikes 1  tokens 0  rank 1
reset mid-call           one endpoint  attempts 3  members 1  backoffs 2  condemned 3  strikes -  tokens 2  error
reset mid-call           fleet of 3    attempts 2  members 2  backoffs 0  condemned 1  strikes 1  tokens 0  rank 1
overload shed            one endpoint  attempts 3  members 1  backoffs 2  condemned 0  strikes -  tokens 2  error
overload shed            fleet of 3    attempts 2  members 2  backoffs 0  condemned 0  strikes 1  tokens 1  rank 1
stalled to the deadline  one endpoint  attempts 1  members 1  backoffs 0  condemned 1  strikes -  tokens 0  error
stalled to the deadline  fleet of 3    attempts 2  members 2  backoffs 0  condemned 1  strikes 1  tokens 1  rank 1
budget expired           one endpoint  attempts 1  members 1  backoffs 0  condemned 0  strikes -  tokens 0  error
budget expired           fleet of 3    attempts 1  members 1  backoffs 0  condemned 0  strikes 0  tokens 0  error
caller cancel            one endpoint  attempts 1  members 1  backoffs 0  condemned 1  strikes -  tokens 0  error
caller cancel            fleet of 3    attempts 1  members 1  backoffs 0  condemned 1  strikes 0  tokens 0  error
remote error             one endpoint  attempts 1  members 1  backoffs 0  condemned 0  strikes -  tokens 0  error
remote error             fleet of 3    attempts 1  members 1  backoffs 0  condemned 0  strikes 0  tokens 0  error
no universe              one endpoint  attempts 1  members 1  backoffs 0  condemned 0  strikes -  tokens 0  error
no universe              fleet of 3    attempts 2  members 2  backoffs 0  condemned 0  strikes 0  tokens 0  rank 1
server panic             one endpoint  attempts 1  members 1  backoffs 0  condemned 0  strikes -  tokens 0  error
server panic             fleet of 3    attempts 1  members 1  backoffs 0  condemned 0  strikes 0  tokens 0  error
frame too large          one endpoint  attempts 1  members 1  backoffs 0  condemned 0  strikes -  tokens 0  error
frame too large          fleet of 3    attempts 1  members 1  backoffs 0  condemned 0  strikes 0  tokens 0  error
hedged slow owner        fleet of 3    hedge served by rank 1
hedged owner, streak 2   fleet of 3    owner closed  streak 2  samples 1
hedged half-open owner   fleet of 3    owner half-open  streak 0  samples 1
hedge dial canceled      fleet of 3    target closed  streak 0  samples 0
`
	var got strings.Builder
	got.WriteString("\n")
	for _, e := range failingEndpoints {
		for _, fleet := range []bool{false, true} {
			got.WriteString(pinRow(t, e, fleet) + "\n")
		}
	}
	rank, _ := hedgeRace(t, nil)
	got.WriteString(fmt.Sprintf("%-23s  fleet of 3    hedge served by rank %d\n", "hedged slow owner", rank))
	_, owner := hedgeRace(t, func(b *breaker) { b.failures = 2 })
	got.WriteString(fmt.Sprintf("%-23s  fleet of 3    owner %s\n", "hedged owner, streak 2", owner))
	_, owner = hedgeRace(t, func(b *breaker) { b.state, b.openedAt = breakerOpen, b.clk.Now().Add(-breakerCooldown) })
	got.WriteString(fmt.Sprintf("%-23s  fleet of 3    owner %s\n", "hedged half-open owner", owner))
	got.WriteString(fmt.Sprintf("%-23s  fleet of 3    target %s\n", "hedge dial canceled", hedgeDialCanceled(t)))
	if got.String() != want {
		t.Errorf("attempt table:%s\nwant:%s", got.String(), want)
	}
}

// pinRow runs one call at e's failing endpoint, alone or as the owner of
// a fleet of three, and renders what it cost.
func pinRow(t *testing.T, e failingEndpoint, fleet bool) string {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	call := resil.Call{Key: "echo", Op: 1}
	addr := e.start(t, &call, func() { once.Do(cancel) })
	opts := pinOpts()
	where := "one endpoint"
	var pools []resil.Stats
	var members, strikes int
	var outcome string
	if !fleet {
		pool := resil.New(addr, opts)
		defer pool.Close()
		_, err := pool.Do(ctx, call)
		pools, members, outcome = []resil.Stats{pool.Stats()}, 1, "error"
		if err == nil {
			outcome = "ok"
		}
	} else {
		where = "fleet of 3"
		healthy, _, _ := echoFleet(t, 2)
		addrs := append([]string{addr}, healthy...)
		c := New(addrs, Options{Resil: opts})
		defer c.Close()
		rk := ownedBy(t, addrs, addr)
		res, err := c.Do(ctx, rk, call)
		outcome = "error"
		if err == nil {
			outcome = fmt.Sprintf("rank %d", rankOf(addrs, rk, string(res.Reply)))
		}
		st := c.Stats()
		members = 1 + int(st.Failovers)
		for _, m := range st.Members {
			pools = append(pools, m.Pool)
		}
		for _, a := range addrs {
			b := c.members[a].brk
			b.mu.Lock()
			strikes += b.failures
			b.mu.Unlock()
		}
	}
	var retries, hedges, discards int64
	for _, p := range pools {
		retries += p.Retries
		hedges += p.Hedges
		discards += p.Discards
	}
	strikeCol := fmt.Sprint(strikes)
	if !fleet {
		strikeCol = "-"
	}
	return fmt.Sprintf("%-23s  %-12s  attempts %d  members %d  backoffs %d  condemned %d  strikes %s  tokens %d  %s",
		e.name, where, int64(members)+retries+hedges, members, retries, discards, strikeCol, spent(opts.RetryBudget), outcome)
}

// rankOf is the position of the member that served, in rk's ranking.
func rankOf(addrs []string, rk []byte, served string) int {
	for i, a := range NewRing(addrs).Ranked(rk) {
		if a == served {
			return i
		}
	}
	return -1
}

// hedgeRace runs a hedged fleet call whose owner, its breaker first set
// by prep, stalls its first call until the race cancels it, and returns
// the rank of the member whose reply won and the owner's breaker once
// the loser has booked its end.
func hedgeRace(t *testing.T, prep func(*breaker)) (int, string) {
	addrs, servers, _ := echoFleet(t, 3)
	rk := RouteKey("hedge", "pin")
	owner := NewRing(addrs).Owner(rk)
	var first sync.Once
	servers[owner].Register("echo", func(ctx context.Context, op uint32, body []byte) ([]byte, error) {
		stall := false
		first.Do(func() { stall = true })
		if stall {
			<-ctx.Done()
			return nil, ctx.Err()
		}
		return []byte(owner), nil
	})
	opts := pinOpts()
	opts.Hedge = true
	c := New(addrs, Options{Resil: opts})
	defer c.Close()
	if prep != nil {
		b := c.members[owner].brk
		b.mu.Lock()
		prep(b)
		b.mu.Unlock()
	}
	res, err := c.Do(context.Background(), rk, resil.Call{Key: "echo", Op: 1})
	if err != nil {
		t.Fatalf("hedged call: %v", err)
	}
	return rankOf(addrs, rk, string(res.Reply)), breakerAfter(t, c.members[owner])
}

// hedgeDialCanceled runs a hedged fleet call whose hedge goes to a member
// that cannot be dialed in time, and whose owner answers once the hedge
// is launched; it returns the hedge target's breaker once its canceled
// dial has booked its end.
func hedgeDialCanceled(t *testing.T) string {
	addrs, servers, _ := echoFleet(t, 2)
	addrs = append(addrs, unanswered(t))
	var rk []byte
	for i := 0; rk == nil; i++ {
		if k := RouteKey("hedge", fmt.Sprint(i)); NewRing(addrs).Ranked(k)[1] == addrs[2] {
			rk = k
		}
	}
	owner, target := NewRing(addrs).Owner(rk), addrs[2]
	opts := pinOpts()
	opts.Hedge = true
	c := New(addrs, Options{Resil: opts})
	defer c.Close()
	servers[owner].Register("echo", func(ctx context.Context, op uint32, body []byte) ([]byte, error) {
		for c.members[target].pool.Stats().Hedges == 0 {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			runtime.Gosched()
		}
		return []byte(owner), nil
	})
	res, err := c.Do(context.Background(), rk, resil.Call{Key: "echo", Op: 1})
	if err != nil || string(res.Reply) != owner {
		t.Fatalf("hedged call = %q, %v, want the owner's reply", res.Reply, err)
	}
	return breakerAfter(t, c.members[target])
}

// unanswered returns an address whose dials hang: its listener's accept
// queue holds one connection and is full, so Linux drops further SYNs.
func unanswered(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	rc, err := ln.(*net.TCPListener).SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	if err := rc.Control(func(fd uintptr) { err = syscall.Listen(int(fd), 0) }); err != nil {
		t.Fatal(err)
	}
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	return ln.Addr().String()
}

// breakerAfter waits for m to carry no call — a race's loser books its
// end after the call returns — and renders its breaker.
func breakerAfter(t *testing.T, m *member) string {
	for end := time.Now().Add(5 * time.Second); m.inflight.Load() != 0; runtime.Gosched() {
		if time.Now().After(end) {
			t.Fatal("the race's loser never booked its end")
		}
	}
	state, _ := m.brk.snapshot()
	m.brk.mu.Lock()
	streak := m.brk.failures
	m.brk.mu.Unlock()
	_, n := m.brk.lat.Percentile(0.99)
	return fmt.Sprintf("%s  streak %d  samples %d", state, streak, n)
}

// TestHedgeTargetWaitsItsTurn: a hedge's target counts as tried, so when
// the primary and the hedge both fail, the call moves on to the member
// neither tried before it revisits either.
func TestHedgeTargetWaitsItsTurn(t *testing.T) {
	addrs, servers, _ := echoFleet(t, 3)
	rk := RouteKey("hedge", "turn")
	ranked := NewRing(addrs).Ranked(rk)
	hedged := make(chan struct{})
	var once sync.Once
	shed := fmt.Errorf("%w: full", orb.ErrOverloaded)
	servers[ranked[0]].Register("echo", func(ctx context.Context, op uint32, body []byte) ([]byte, error) {
		<-hedged
		return nil, shed
	})
	servers[ranked[1]].Register("echo", func(ctx context.Context, op uint32, body []byte) ([]byte, error) {
		once.Do(func() { close(hedged) })
		return nil, shed
	})
	opts := pinOpts()
	opts.Hedge = true
	c := New(addrs, Options{Resil: opts})
	defer c.Close()
	res, err := c.Do(context.Background(), rk, resil.Call{Key: "echo", Op: 1})
	if err != nil || string(res.Reply) != ranked[2] {
		t.Fatalf("call = %q, %v, want it served by the third ranked member", res.Reply, err)
	}
	for _, m := range c.Stats().Members {
		if m.Pool.Retries != 0 {
			t.Errorf("member %s was revisited before the third member was tried", m.Addr)
		}
	}
}
