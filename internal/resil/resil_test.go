package resil

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/orb"
	"repro/internal/testutil"
)

// The hedge loser and a stream's context watcher outlive the call that
// started them; the fence proves each of them ends.
func TestMain(m *testing.M) { testutil.LeakFence(m) }

// echoOrb starts an orb server with an "echo" object.
func echoOrb(t *testing.T) *orb.Server {
	t.Helper()
	s, err := orb.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	s.Register("echo", func(ctx context.Context, op uint32, body []byte) ([]byte, error) {
		return body, nil
	})
	return s
}

func newClient(t *testing.T, addr string, opts Options) *Client {
	t.Helper()
	c := New(addr, opts)
	t.Cleanup(func() { _ = c.Close() })
	return c
}

// TestIdleReap: the reaper, ticking every quarter idleTimeout, keeps a
// connection idle for exactly idleTimeout and closes it by the next tick.
func TestIdleReap(t *testing.T) {
	s := echoOrb(t)
	clk := testutil.NewClock()
	c := newClient(t, s.Addr(), Options{clk: clk})
	if _, err := c.InvokeContext(context.Background(), "echo", 0, nil); err != nil {
		t.Fatal(err)
	}
	clk.Advance(idleTimeout)
	if st := c.Stats(); st.Conns != 1 {
		t.Fatalf("a connection idle for idleTimeout was reaped: %+v", st)
	}
	clk.Advance(idleTimeout / 4)
	if st := c.Stats(); st.Conns != 0 || st.Discards != 1 {
		t.Fatalf("idle connection not reaped: %+v", st)
	}
	// The pool re-dials transparently after the reap.
	if _, err := c.InvokeContext(context.Background(), "echo", 0, nil); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Dials != 2 {
		t.Errorf("dials = %d, want 2 (one before and one after the reap)", st.Dials)
	}
}

func TestHedgingMasksSlowReplica(t *testing.T) {
	s := echoOrb(t)
	var calls atomic.Int64
	stalled, release := make(chan struct{}), make(chan struct{})
	t.Cleanup(func() { close(release) })
	s.Register("flaky", func(ctx context.Context, op uint32, body []byte) ([]byte, error) {
		if calls.Add(1) == 1 {
			close(stalled)
			<-release // first request stalls until the test ends
		}
		return []byte("ok"), nil
	})
	clk := testutil.NewClock()
	c := newClient(t, s.Addr(), Options{PoolSize: 2, Hedge: true, CallTimeout: 10 * time.Second, clk: clk})
	var reply []byte
	var err error
	done := make(chan struct{})
	go func() {
		defer close(done)
		reply, err = c.InvokeContext(context.Background(), "flaky", 0, nil)
	}()
	<-stalled
	clk.WaitArmed(t, 2) // the reaper and the hedge
	clk.Advance(10 * time.Millisecond)
	<-done
	if err != nil || string(reply) != "ok" {
		t.Fatalf("reply = %q err = %v", reply, err)
	}
	if st := c.Stats(); st.Hedges != 1 || st.HedgeWins != 1 {
		t.Errorf("stats = %+v, want 1 hedge / 1 win", st)
	}
}

func TestPercentileHedgeDelay(t *testing.T) {
	s := echoOrb(t)
	c := newClient(t, s.Addr(), Options{Hedge: true})
	// Warm the latency window past the 8-sample floor.
	for i := 0; i < 16; i++ {
		if _, err := c.InvokeContext(context.Background(), "echo", 0, nil); err != nil {
			t.Fatal(err)
		}
	}
	d := c.hedgeDelay()
	if d <= 0 || d > time.Second {
		t.Errorf("percentile hedge delay = %v", d)
	}
}

// --- the chaos matrix ---
//
// For every fault class the resil client must either succeed (via
// retry/hedge) or fail fast with a typed error inside its configured
// deadline — never hang. Each subtest asserts an elapsed-time ceiling
// well under the test binary's own timeout.

func chaosPair(t *testing.T, f chaos.Faults) (*orb.Server, *chaos.Proxy) {
	t.Helper()
	s := echoOrb(t)
	p, err := chaos.New("127.0.0.1:0", s.Addr(), f)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = p.Close() })
	return s, p
}

func TestRetryBudgetTokenBucket(t *testing.T) {
	b := NewRetryBudget(0.5, 2)
	if !b.Withdraw() || !b.Withdraw() {
		t.Fatal("reserve of 2 refused a withdrawal")
	}
	if b.Withdraw() {
		t.Fatal("empty budget allowed a withdrawal")
	}
	// Two successes at ratio 0.5 earn one whole token back.
	b.Deposit()
	b.Deposit()
	if !b.Withdraw() {
		t.Fatal("deposits did not restore the budget")
	}
	// The balance is capped at the reserve: deposits beyond it are lost.
	for i := 0; i < 100; i++ {
		b.Deposit()
	}
	if !b.Withdraw() || !b.Withdraw() {
		t.Fatal("capped budget refused its reserve")
	}
	if b.Withdraw() {
		t.Fatal("deposits banked past the cap")
	}
}

func TestChaosMatrixLatency(t *testing.T) {
	_, p := chaosPair(t, chaos.Faults{Latency: 10 * time.Millisecond, Jitter: 5 * time.Millisecond, ChunkSize: 16})
	c := newClient(t, p.Addr(), Options{CallTimeout: 5 * time.Second})
	start := time.Now()
	reply, err := c.InvokeContext(context.Background(), "echo", 0, []byte("slow but steady"))
	if err != nil {
		t.Fatalf("latency fault should be survivable: %v", err)
	}
	if string(reply) != "slow but steady" {
		t.Fatalf("reply = %q", reply)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("took %v", elapsed)
	}
}

func TestChaosMatrixReset(t *testing.T) {
	// Budget sized between one and two calls' traffic: the first call
	// succeeds, the second dies mid-flight and must recover by retrying
	// on a fresh connection (whose fresh budget covers one more call).
	_, p := chaosPair(t, chaos.Faults{ResetAfter: 100})
	c := newClient(t, p.Addr(), Options{
		PoolSize:    1,
		CallTimeout: 5 * time.Second,
	})
	start := time.Now()
	if _, err := c.InvokeContext(context.Background(), "echo", 0, []byte("first")); err != nil {
		t.Fatalf("first call: %v", err)
	}
	reply, err := c.InvokeContext(context.Background(), "echo", 0, []byte("second"))
	if err != nil {
		t.Fatalf("reset fault should be survivable by retry: %v", err)
	}
	if string(reply) != "second" {
		t.Fatalf("reply = %q", reply)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("took %v", elapsed)
	}
	if st := c.Stats(); st.Retries == 0 || st.Dials < 2 {
		t.Errorf("stats = %+v, want a retry on a fresh connection", st)
	}
}

func TestChaosMatrixBlackhole(t *testing.T) {
	_, p := chaosPair(t, chaos.Faults{BlackholeAfter: 1})
	c := newClient(t, p.Addr(), Options{CallTimeout: 300 * time.Millisecond})
	start := time.Now()
	_, err := c.InvokeContext(context.Background(), "echo", 0, []byte("into the void"))
	elapsed := time.Since(start)
	if !errors.Is(err, orb.ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("black-holed call took %v, want fail-fast near the 300ms deadline", elapsed)
	}
}

func TestChaosMatrixTruncation(t *testing.T) {
	// Every connection truncates mid-frame, so retries are futile: the
	// client must exhaust its attempts quickly with a typed
	// connection error, not hang on the half-delivered reply.
	_, p := chaosPair(t, chaos.Faults{TruncateAfter: 20})
	c := newClient(t, p.Addr(), Options{
		MaxAttempts: 3,
		CallTimeout: 3 * time.Second,
	})
	start := time.Now()
	_, err := c.InvokeContext(context.Background(), "echo", 0, []byte("cut short"))
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("truncated stream produced a successful call")
	}
	if !errors.Is(err, orb.ErrConnClosed) && !errors.Is(err, orb.ErrDeadline) {
		t.Fatalf("err = %v, want a typed transport error", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("took %v", elapsed)
	}
	if st := c.Stats(); st.Retries == 0 {
		t.Errorf("stats = %+v, want retries before giving up", st)
	}
}

func TestChaosMatrixHealedProxy(t *testing.T) {
	// Faults lift mid-run: calls that failed fast start succeeding with
	// no client intervention (the pool re-dials through the healed
	// proxy).
	_, p := chaosPair(t, chaos.Faults{DropOnAccept: true})
	c := newClient(t, p.Addr(), Options{
		MaxAttempts: 2,
		CallTimeout: 2 * time.Second,
	})
	if _, err := c.InvokeContext(context.Background(), "echo", 0, nil); err == nil {
		t.Fatal("call through a dropping proxy succeeded")
	}
	p.SetFaults(chaos.Faults{})
	reply, err := c.InvokeContext(context.Background(), "echo", 0, []byte("healed"))
	if err != nil || string(reply) != "healed" {
		t.Fatalf("healed call = %q, %v", reply, err)
	}
}

func TestDrainTimeoutForcesClose(t *testing.T) {
	// A connection stuck in flight past the drain deadline is closed
	// forcibly and the context error surfaces.
	s := echoOrb(t)
	finish := make(chan struct{})
	defer close(finish)
	started := make(chan struct{})
	s.Register("stuck", func(ctx context.Context, op uint32, body []byte) ([]byte, error) {
		close(started)
		<-finish
		return body, nil
	})
	c := newClient(t, s.Addr(), Options{CallTimeout: 10 * time.Second})
	go func() { _, _ = c.InvokeContext(context.Background(), "stuck", 0, nil) }()
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := c.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain = %v, want deadline exceeded", err)
	}
	if _, err := c.InvokeContext(context.Background(), "echo", 0, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("call after forced drain = %v, want ErrClosed", err)
	}
}
