package orb

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/testutil"
)

// TestHandlerPanicIsolated asserts the server-side hardening contract:
// a panicking handler produces a typed ErrServerPanic at the client,
// bumps the Panics stat, and leaves the connection serving — the next
// request on the same connection must succeed.
func TestHandlerPanicIsolated(t *testing.T) {
	s := startServer(t)
	s.Register("svc", func(ctx context.Context, op uint32, body []byte) ([]byte, error) {
		if op == 1 {
			panic("injected failure")
		}
		return body, nil
	})
	c := dial(t, s)

	_, err := c.Invoke("svc", 1, nil)
	if !errors.Is(err, ErrServerPanic) {
		t.Fatalf("err = %v, want ErrServerPanic", err)
	}
	if !strings.Contains(err.Error(), "injected failure") {
		t.Errorf("err = %v, want panic value in message", err)
	}
	var re *RemoteError
	if errors.As(err, &re) {
		t.Errorf("panic surfaced as RemoteError %v, want distinct sentinel", re)
	}

	// Same connection, next request: must be served normally.
	reply, err := c.Invoke("svc", 0, []byte("still alive"))
	if err != nil || string(reply) != "still alive" {
		t.Fatalf("post-panic invoke = %q, %v", reply, err)
	}
	if st := s.Stats(); st.Panics != 1 {
		t.Errorf("Panics = %d, want 1", st.Panics)
	}
}

// TestCallRecoversPanic covers the bare helper used by servers that
// dispatch handlers on their own goroutines.
func TestCallRecoversPanic(t *testing.T) {
	h := func(ctx context.Context, op uint32, body []byte) ([]byte, error) { panic(op) }
	_, err := Call(context.Background(), h, 7, nil)
	if !errors.Is(err, ErrServerPanic) || !strings.Contains(err.Error(), "7") {
		t.Errorf("Call err = %v", err)
	}
	ok := func(ctx context.Context, op uint32, body []byte) ([]byte, error) { return body, nil }
	out, err := Call(context.Background(), ok, 0, []byte("x"))
	if err != nil || string(out) != "x" {
		t.Errorf("Call = %q, %v", out, err)
	}
}

// TestPerConnCap floods one connection past its concurrency cap with
// handlers parked on a gate: the excess requests must be shed with
// ErrOverloaded while the admitted ones complete once released.
func TestPerConnCap(t *testing.T) {
	const lim = 4
	s := startServer(t, WithMaxPerConn(lim))

	gate := make(chan struct{})
	entered := make(chan struct{}, 64)
	s.Register("slow", func(ctx context.Context, op uint32, body []byte) ([]byte, error) {
		entered <- struct{}{}
		<-gate
		return body, nil
	})
	c := dial(t, s)

	var wg sync.WaitGroup
	errs := make(chan error, lim)
	for i := 0; i < lim; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := c.Invoke("slow", 0, nil)
			errs <- err
		}()
	}
	for i := 0; i < lim; i++ {
		select {
		case <-entered:
		case <-time.After(5 * time.Second):
			t.Fatal("handlers did not start")
		}
	}

	// Connection is at its cap: the next request must be shed, typed.
	_, err := c.Invoke("slow", 0, nil)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("over-cap err = %v, want ErrOverloaded", err)
	}
	if st := s.Stats(); st.Shed != 1 {
		t.Errorf("Shed = %d, want 1", st.Shed)
	}

	// A oneway over the cap is dropped silently, not an error.
	if err := c.Send("slow", 0, nil); err != nil {
		t.Errorf("oneway over cap: %v", err)
	}

	close(gate)
	wg.Wait()
	for i := 0; i < lim; i++ {
		if err := <-errs; err != nil {
			t.Errorf("admitted request failed: %v", err)
		}
	}

	// Capacity freed: the connection serves again.
	if _, err := c.Invoke("slow", 0, nil); err != nil {
		t.Fatalf("post-shed invoke: %v", err)
	}
}

// TestDialErrorTyped asserts dial failures carry the ErrDial sentinel so
// clients can map "daemon unreachable" to a distinct outcome.
func TestDialErrorTyped(t *testing.T) {
	_, err := Dial("127.0.0.1:1")
	if err == nil {
		t.Skip("something is listening on port 1")
	}
	if !errors.Is(err, ErrDial) {
		t.Errorf("err = %v, want ErrDial", err)
	}
}

// A pooled deadline timer's callback can land on the request after the
// one it was set for; the verdict must come from the clock.
func TestServerCtxIgnoresStaleExpiry(t *testing.T) {
	clk := testutil.NewClock()
	cl := &call{serverCtx: serverCtx{clk: clk, done: make(chan struct{})}}
	cl.arm(clk.Now().Add(time.Hour))
	cl.expire() // the previous request's callback, late
	if err := cl.Err(); err != nil {
		t.Fatalf("a stale expiry ended the next request's context: %v", err)
	}
	cl.disarm()
	cl.arm(clk.Now().Add(-time.Millisecond))
	cl.expire()
	if err := cl.Err(); err != context.DeadlineExceeded {
		t.Fatalf("Err = %v after the deadline, want DeadlineExceeded", err)
	}
	select {
	case <-cl.Done():
	default:
		t.Fatal("Done still open after the deadline")
	}
	cl.disarm()
	if cl.Err() != nil {
		t.Fatal("disarm left the verdict for the next request")
	}
}
