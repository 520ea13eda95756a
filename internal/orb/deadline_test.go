package orb

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/testutil"
)

// withClock runs a server's frame stamps and budget timers on clk.
func withClock(clk clock.Clock) Option { return func(l *Limits) { l.clk = clk } }

// A context deadline travels as a wire budget the handler can see as its
// own context deadline.
func TestBudgetReachesHandler(t *testing.T) {
	s := startServer(t)
	deadlines := make(chan time.Duration, 1)
	s.Register("probe", func(ctx context.Context, op uint32, body []byte) ([]byte, error) {
		d, ok := ctx.Deadline()
		if !ok {
			deadlines <- 0
		} else {
			deadlines <- time.Until(d)
		}
		return body, nil
	})
	c := dial(t, s)

	ctx, cancel := context.WithTimeout(context.Background(), 750*time.Millisecond)
	defer cancel()
	if _, err := c.InvokeContext(ctx, "probe", 0, []byte("x")); err != nil {
		t.Fatal(err)
	}
	rem := <-deadlines
	if rem <= 0 || rem > 750*time.Millisecond {
		t.Errorf("handler saw %v of budget, want (0, 750ms]", rem)
	}
}

// Abandoning a call sends a cancel frame: the server aborts exactly that
// request (the handler's context fires) and counts it.
func TestCancelFrameAbortsHandler(t *testing.T) {
	s := startServer(t)
	started := make(chan struct{})
	aborted := make(chan error, 1)
	s.Register("slow", func(ctx context.Context, op uint32, body []byte) ([]byte, error) {
		close(started)
		select {
		case <-ctx.Done():
			aborted <- ctx.Err()
			return nil, ctx.Err()
		case <-time.After(5 * time.Second):
			return nil, errors.New("handler never saw the cancellation")
		}
	})
	c := dial(t, s)

	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := c.InvokeContext(ctx, "slow", 0, nil)
		errCh <- err
	}()
	<-started
	cancel()
	if err := <-errCh; !errors.Is(err, ErrCanceled) {
		t.Fatalf("client error = %v, want ErrCanceled", err)
	}
	select {
	case err := <-aborted:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("handler context error = %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("handler never observed the cancel frame")
	}
	testutil.Eventually(t, "the server to count the cancel", func() bool { return s.Stats().Canceled > 0 })
}

// A request whose body trickles in past its own budget is shed before
// dispatch: the handler never runs, the Expired counter proves it, and
// the error frame carries the typed expiry code.
func TestExpiredShedBeforeDispatch(t *testing.T) {
	clk := testutil.NewClock()
	s := startServer(t, withClock(clk))
	ran := make(chan struct{}, 1)
	s.Register("work", func(ctx context.Context, op uint32, body []byte) ([]byte, error) {
		ran <- struct{}{}
		return nil, nil
	})
	p := newPeer(t, s, new(strings.Builder))
	p.sendTorn(frame{kind: kindRequest, id: 1, key: "work", op: 0, budget: 20}, clk)
	reply := p.expect(1)[0]
	if reply.kind != kindError || reply.op != codeErrExpired {
		t.Fatalf("reply kind=%d op=%d, want expired error frame", reply.kind, reply.op)
	}
	if !errors.Is(errFromFrame(reply), ErrExpired) {
		t.Errorf("decoded error = %v, want ErrExpired", errFromFrame(reply))
	}
	if got := s.Stats().Expired; got != 1 {
		t.Errorf("server Expired = %d, want 1", got)
	}
	select {
	case <-ran:
		t.Fatal("handler ran for a request that was already expired")
	default:
	}
}

// A handler that gives up when the budget-derived deadline fires
// surfaces to the caller as the typed expiry, not a generic remote
// error: the service was healthy, the caller's clock ran out.
func TestExpiredMidHandler(t *testing.T) {
	clk := testutil.NewClock()
	s := startServer(t, withClock(clk))
	s.Register("sleepy", func(ctx context.Context, op uint32, body []byte) ([]byte, error) {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(5 * time.Second):
			return nil, errors.New("budget deadline never fired")
		}
	})
	c := dial(t, s)

	// Explicit wire budget, no local deadline: the client is willing to
	// wait for the server's verdict, so the typed expiry must come from
	// the server, proving the budget → handler-context derivation.
	errs := make(chan error, 1)
	go func() {
		_, err := c.InvokeContext(ContextWithBudget(context.Background(), 50*time.Millisecond), "sleepy", 0, nil)
		errs <- err
	}()
	clk.WaitArmed(t, 1) // the budget's deadline timer
	clk.Advance(50 * time.Millisecond)
	if err := <-errs; !errors.Is(err, ErrExpired) {
		t.Fatalf("err = %v, want ErrExpired", err)
	}
}

// An explicit ContextWithBudget value overrides the context's own
// deadline as the wire budget, which is how `mbird remote -budget` gives
// downstream hops less time than it waits locally.
func TestExplicitBudgetOverridesDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	if ms := budgetMillis(ctx); ms < 59*60*1000 {
		t.Fatalf("deadline-derived budget = %dms", ms)
	}
	ctx = ContextWithBudget(ctx, 250*time.Millisecond)
	if ms := budgetMillis(ctx); ms != 250 {
		t.Fatalf("explicit budget = %dms, want 250", ms)
	}
}

// lateTimers is a fake clock whose timers run an hour late: between a
// deadline and the timer that ends the context, the state a loaded host
// leaves a call in for a while.
type lateTimers struct{ *testutil.Clock }

func (c lateTimers) AfterFunc(d time.Duration, f func()) clock.Timer {
	return c.Clock.AfterFunc(d+time.Hour, f)
}

// TestHandlerExpiryTable: a handler that gives up reporting its deadline
// answers with the typed expiry once the budget's deadline has come, even
// while the context's Err is still nil, and only then.
func TestHandlerExpiryTable(t *testing.T) {
	for _, tc := range []struct {
		name    string
		advance time.Duration // how far the clock moves while the handler runs
		err     error
		expired bool
	}{
		{"orb deadline, deadline passed", 50 * time.Millisecond, ErrDeadline, true},
		{"context deadline, deadline passed", 60 * time.Millisecond, context.DeadlineExceeded, true},
		{"other error, deadline passed", 50 * time.Millisecond, errors.New("disk full"), false},
		{"orb deadline, deadline ahead", 49 * time.Millisecond, ErrDeadline, false},
	} {
		clk := lateTimers{testutil.NewClock()}
		s := startServer(t, withClock(clk))
		s.Register("work", func(ctx context.Context, op uint32, body []byte) ([]byte, error) {
			clk.Advance(tc.advance)
			if ctx.Err() != nil {
				t.Errorf("%s: the late timer already ended the context", tc.name)
			}
			return nil, tc.err
		})
		_, err := dial(t, s).InvokeContext(ContextWithBudget(context.Background(), 50*time.Millisecond), "work", 0, nil)
		var remote *RemoteError
		if got := errors.Is(err, ErrExpired); got != tc.expired || !got && !errors.As(err, &remote) {
			t.Errorf("%s: err = %v, want expired %v (else a remote error)", tc.name, err, tc.expired)
		}
	}
}
