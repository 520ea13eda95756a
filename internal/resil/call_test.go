package resil

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/orb"
	"repro/internal/testutil"
)

// kindOrb starts an orb server whose "echo" object echoes a body back
// under both kinds, and whose "bad" object fails in the handler under
// both.
func kindOrb(t *testing.T) *orb.Server {
	t.Helper()
	s := echoOrb(t)
	s.RegisterStream("echo", func(ctx context.Context, op uint32, in *orb.StreamReader, out *orb.StreamWriter) error {
		_, err := io.Copy(out, in)
		return err
	})
	s.Register("bad", func(ctx context.Context, op uint32, body []byte) ([]byte, error) {
		return nil, errors.New("handler kaboom")
	})
	s.RegisterStream("bad", func(ctx context.Context, op uint32, in *orb.StreamReader, out *orb.StreamWriter) error {
		return errors.New("handler kaboom")
	})
	return s
}

// finish runs an opened stream to its end — body out, reply in, Close,
// then the result's Done with the terminal error — and is the identity on
// a buffered result, which is already finished. Bodies stay well under a
// credit window, so sequential write-then-read is safe here.
func finish(res Result, body []byte) ([]byte, error) {
	if res.Stream == nil {
		return res.Reply, nil
	}
	_, err := res.Stream.Write(body)
	if err == nil {
		err = res.Stream.CloseSend()
	}
	var reply []byte
	if err == nil {
		reply, err = io.ReadAll(res.Stream)
	}
	_ = res.Stream.Close()
	res.Done(err)
	return reply, err
}

// do runs one call of the given kind to completion.
func do(c *Client, kind Kind, key string, body []byte) ([]byte, error) {
	res, err := c.Do(context.Background(), Call{Key: key, Op: 1, Body: body, Kind: kind})
	if err != nil {
		return nil, err
	}
	return finish(res, body)
}

// backedOff runs f while advancing clk past each of the n retry backoffs
// it waits out, one at a time, once the backoff has armed its timer.
func backedOff(t *testing.T, clk *testutil.Clock, n int, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	for i := 0; i < n; i++ {
		clk.WaitArmed(t, 2) // the reaper and the backoff
		clk.Advance(backoffMax)
	}
	<-done
}

// deadAddr reserves a port and frees it, so dials to it are refused fast.
func deadAddr(t *testing.T) string {
	s := echoOrb(t)
	_ = s.Close()
	return s.Addr()
}

// TestCallKinds is the envelope's contract, one row per behaviour, every
// row run for a buffered call and for a stream: the two kinds share the
// attempt loop, the budget and the pool, so they must agree on all of it.
func TestCallKinds(t *testing.T) {
	rows := []struct {
		name string
		run  func(t *testing.T, kind Kind)
	}{
		{"reuses one pooled connection", func(t *testing.T, kind Kind) {
			c := newClient(t, kindOrb(t).Addr(), Options{PoolSize: 2})
			for i := 0; i < 10; i++ {
				body := bytes.Repeat([]byte{byte(i + 1)}, 1024)
				if got, err := do(c, kind, "echo", body); err != nil || !bytes.Equal(got, body) {
					t.Fatalf("call %d: %d reply bytes, %v", i, len(got), err)
				}
			}
			if st := c.Stats(); st.Dials != 1 || st.Conns != 1 {
				t.Errorf("stats = %+v, want 1 dial / 1 conn after 10 sequential calls", st)
			}
		}},
		{"retries a refused dial, then reports the attempts", func(t *testing.T, kind Kind) {
			clk := testutil.NewClock()
			c := newClient(t, deadAddr(t), Options{MaxAttempts: 3, clk: clk})
			var err error
			backedOff(t, clk, 2, func() { _, err = do(c, kind, "echo", nil) })
			if !errors.Is(err, orb.ErrDial) || !strings.Contains(err.Error(), "resil: 3 attempts to ") {
				t.Fatalf("err = %v, want the dial failure under \"resil: 3 attempts to ...\"", err)
			}
			if st := c.Stats(); st.Retries != 2 {
				t.Errorf("retries = %d, want 2", st.Retries)
			}
		}},
		{"retries after connection death", func(t *testing.T, kind Kind) {
			s := kindOrb(t)
			clk := testutil.NewClock()
			c := newClient(t, s.Addr(), Options{PoolSize: 1, clk: clk})
			if _, err := do(c, kind, "echo", []byte("warm")); err != nil {
				t.Fatal(err)
			}
			_ = s.Close() // drops the pooled connection; redials are refused
			// Wait until the connection knows: an open frame written into a
			// connection that is dying but not yet dead "succeeds", and the
			// stream then fails past the point a retry can cover.
			pc := c.conns[0]
			testutil.Eventually(t, "the connection's death", func() bool { return pc.c.Err() != nil })
			var err error
			backedOff(t, clk, 2, func() { _, err = do(c, kind, "echo", []byte("x")) })
			if err == nil {
				t.Fatal("call against a closed server succeeded")
			}
			if st := c.Stats(); st.Retries == 0 || st.Conns != 0 {
				t.Errorf("stats = %+v, want the dead connection dropped and the call retried", st)
			}
		}},
		// The typed ErrRetryBudget, not MaxAttempts, bounds a retry storm.
		{"stops when the retry budget is dry", func(t *testing.T, kind Kind) {
			clk := testutil.NewClock()
			c := newClient(t, deadAddr(t), Options{MaxAttempts: 5, RetryBudget: NewRetryBudget(0.1, 1), clk: clk})
			var err error
			backedOff(t, clk, 1, func() { _, err = do(c, kind, "echo", nil) })
			if !errors.Is(err, ErrRetryBudget) || !errors.Is(err, orb.ErrDial) {
				t.Fatalf("err = %v, want ErrRetryBudget wrapping the last attempt's dial failure", err)
			}
			if st := c.Stats(); st.Retries != 1 || st.BudgetExhausted != 1 {
				t.Errorf("stats = %+v, want the reserve's 1 retry and 1 refusal", st)
			}
		}},
		// The failed attempt stays the cause and the count is the attempts
		// made, not MaxAttempts. The first backoff is at least half of
		// backoffBase, more than the whole call has.
		{"a backoff the deadline cannot survive ends the loop", func(t *testing.T, kind Kind) {
			c := newClient(t, deadAddr(t), Options{MaxAttempts: 5, CallTimeout: 10 * time.Millisecond})
			_, err := do(c, kind, "echo", nil)
			if !errors.Is(err, orb.ErrDial) || !strings.Contains(err.Error(), "resil: 1 attempts to ") {
				t.Fatalf("err = %v, want the dial failure under \"resil: 1 attempts to ...\"", err)
			}
		}},
		{"a closed client refuses without retrying", func(t *testing.T, kind Kind) {
			c := newClient(t, kindOrb(t).Addr(), Options{})
			if _, err := do(c, kind, "echo", []byte("open")); err != nil {
				t.Fatal(err)
			}
			_ = c.Close()
			if _, err := do(c, kind, "echo", nil); !errors.Is(err, ErrClosed) {
				t.Fatalf("err = %v, want ErrClosed", err)
			}
			if st := c.Stats(); st.Retries != 0 {
				t.Errorf("retries = %d on a closed client", st.Retries)
			}
			_ = c.Close() // idempotent
		}},
		{"a draining client refuses new calls and lets the one in flight finish", func(t *testing.T, kind Kind) {
			s := kindOrb(t)
			started, release := make(chan struct{}), make(chan struct{})
			s.Register("slow", func(ctx context.Context, op uint32, body []byte) ([]byte, error) {
				close(started)
				<-release
				return body, nil
			})
			c := newClient(t, s.Addr(), Options{CallTimeout: 5 * time.Second})
			type outcome struct {
				reply []byte
				err   error
			}
			inflight := make(chan outcome, 1)
			if kind == Stream {
				res, err := c.Do(context.Background(), Call{Key: "echo", Op: 1, Kind: Stream})
				if err != nil {
					t.Fatal(err)
				}
				go func() {
					<-release
					reply, err := finish(res, []byte("inflight"))
					inflight <- outcome{reply, err}
				}()
			} else {
				go func() {
					reply, err := c.InvokeContext(context.Background(), "slow", 1, []byte("inflight"))
					inflight <- outcome{reply, err}
				}()
				<-started
			}
			drained := make(chan error, 1)
			go func() {
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				defer cancel()
				drained <- c.Drain(ctx)
			}()
			testutil.Eventually(t, "new calls to be refused with ErrClosed", func() bool {
				_, err := do(c, kind, "echo", nil)
				return errors.Is(err, ErrClosed)
			})
			close(release)
			if r := <-inflight; r.err != nil || string(r.reply) != "inflight" {
				t.Fatalf("in-flight call = %q, %v, want clean completion", r.reply, r.err)
			}
			if err := <-drained; err != nil {
				t.Fatalf("drain = %v", err)
			}
			if st := c.Stats(); st.Conns != 0 {
				t.Errorf("conns = %d after drain, want 0", st.Conns)
			}
		}},
		// A remote handler error says nothing about connection health.
		{"a remote error is final and keeps the connection", func(t *testing.T, kind Kind) {
			c := newClient(t, kindOrb(t).Addr(), Options{PoolSize: 1})
			_, err := do(c, kind, "bad", nil)
			var re *orb.RemoteError
			if !errors.As(err, &re) {
				t.Fatalf("err = %v, want RemoteError", err)
			}
			if st := c.Stats(); st.Retries != 0 || st.Conns != 1 {
				t.Errorf("stats = %+v, want no retry and the connection kept", st)
			}
			if got, err := do(c, kind, "echo", []byte("still works")); err != nil || string(got) != "still works" {
				t.Fatalf("echo after remote error = %q, %v", got, err)
			}
			if st := c.Stats(); st.Dials != 1 {
				t.Errorf("dials = %d, want 1 (conn survived the remote error)", st.Dials)
			}
		}},
		// For a stream the death comes mid-stream, after Do returned: it
		// is terminal (no retry) and condemns the connection through Done.
		{"a connection-level failure condemns the connection", func(t *testing.T, kind Kind) {
			s := kindOrb(t)
			c := newClient(t, s.Addr(), Options{PoolSize: 1, MaxAttempts: 1})
			if kind == Buffered {
				if _, err := do(c, kind, "echo", []byte("warm")); err != nil {
					t.Fatal(err)
				}
				_ = s.Close()
				if _, err := do(c, kind, "echo", []byte("x")); err == nil {
					t.Fatal("call against a closed server succeeded")
				}
			} else {
				res, err := c.Do(context.Background(), Call{Key: "echo", Op: 1, Kind: Stream})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := res.Stream.Write([]byte("first chunk")); err != nil {
					t.Fatal(err)
				}
				_ = s.Close()
				var termErr error
				testutil.Eventually(t, "a write to fail after server death", func() bool {
					_, termErr = res.Stream.Write([]byte("x"))
					return termErr != nil
				})
				_ = res.Stream.Close()
				res.Done(termErr)
			}
			if st := c.Stats(); st.Conns != 0 || st.Discards == 0 || st.Retries != 0 {
				t.Errorf("stats = %+v, want the connection discarded and nothing retried", st)
			}
		}},
		// An orb stream open does not wait for the server, so a shed of a
		// stream arrives after Do returned: final, like any mid-stream
		// error, where a buffered shed is backed off and retried. Neither
		// condemns the connection.
		{"an overload shed keeps the connection", func(t *testing.T, kind Kind) {
			s := kindOrb(t)
			var calls atomic.Int64
			shedFirst := func() error {
				if calls.Add(1) == 1 {
					return fmt.Errorf("%w: full", orb.ErrOverloaded)
				}
				return nil
			}
			s.Register("busy", func(ctx context.Context, op uint32, body []byte) ([]byte, error) {
				return body, shedFirst()
			})
			s.RegisterStream("busy", func(ctx context.Context, op uint32, in *orb.StreamReader, out *orb.StreamWriter) error {
				return shedFirst()
			})
			clk := testutil.NewClock()
			c := newClient(t, s.Addr(), Options{clk: clk})
			backoffs := 1 // a buffered shed is retried, a stream's is final
			if kind == Stream {
				backoffs = 0
			}
			var err error
			backedOff(t, clk, backoffs, func() { _, err = do(c, kind, "busy", []byte("x")) })
			st := c.Stats()
			if kind == Buffered && (err != nil || st.Overloads != 1 || st.Retries != 1) {
				t.Errorf("err = %v, stats = %+v, want the shed counted and retried to success", err, st)
			}
			if kind == Stream && (!errors.Is(err, orb.ErrOverloaded) || st.Retries != 0) {
				t.Errorf("err = %v, stats = %+v, want the shed surfaced from the stream, unretried", err, st)
			}
			if st.Discards != 0 || st.Conns != 1 {
				t.Errorf("stats = %+v: a shed must not condemn the connection", st)
			}
		}},
		// Every pool slot mid-dial and none live yet: the calls that cannot
		// dial wait for a dial already in flight instead of failing.
		{"a cold pool makes first calls wait for a dial in flight", func(t *testing.T, kind Kind) {
			c := newClient(t, kindOrb(t).Addr(), Options{PoolSize: 2, MaxAttempts: 1})
			const callers = 64
			errs := make(chan error, callers)
			var ready, wg sync.WaitGroup
			ready.Add(1)
			for i := 0; i < callers; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					ready.Wait()
					if _, err := do(c, kind, "echo", []byte("first")); err != nil {
						errs <- err
					}
				}()
			}
			ready.Done()
			wg.Wait()
			close(errs)
			failed := 0
			for err := range errs {
				if failed++; failed == 1 {
					t.Errorf("first call failed: %v", err)
				}
			}
			if st := c.Stats(); failed != 0 || st.Retries != 0 || st.Dials > 2 {
				t.Errorf("%d of %d first calls failed, stats = %+v, want none, no retry, at most PoolSize dials", failed, callers, st)
			}
		}},
	}
	for _, row := range rows {
		for _, k := range []struct {
			name string
			kind Kind
		}{{"buffered", Buffered}, {"stream", Stream}} {
			t.Run(row.name+"/"+k.name, func(t *testing.T) { row.run(t, k.kind) })
		}
	}
}

// TestStreamNeverHedges: a stream is stateful, so the hedge a buffered
// call on the same client would get never fires for it, however long the
// stream stays open, and the pooled connection serves both kinds in turn.
func TestStreamNeverHedges(t *testing.T) {
	clk := testutil.NewClock()
	c := newClient(t, kindOrb(t).Addr(), Options{Hedge: true, clk: clk})
	for i := 0; i < 3; i++ {
		res, err := c.Do(context.Background(), Call{Key: "echo", Op: 1, Kind: Stream})
		if err != nil {
			t.Fatal(err)
		}
		clk.Advance(time.Second) // far past any hedge delay
		if got, err := finish(res, []byte("payload")); err != nil || string(got) != "payload" {
			t.Fatalf("stream %d = %q, %v", i, got, err)
		}
	}
	if st := c.Stats(); st.Hedges != 0 || st.Dials != 1 {
		t.Errorf("stats = %+v; streams must never hedge", st)
	}
	if got, err := do(c, Buffered, "echo", []byte("hi")); err != nil || string(got) != "hi" {
		t.Fatalf("buffered call after streams = %q, %v", got, err)
	}
}
