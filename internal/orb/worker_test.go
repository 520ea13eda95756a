package orb

import (
	"bytes"
	"context"
	"errors"
	"net"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/testutil"
)

// soleConn returns the one connection s is serving.
func soleConn(t *testing.T, s *Server) *serverConn {
	t.Helper()
	var sc *serverConn
	testutil.Eventually(t, "the server's one connection", func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		for _, sc = range s.conns {
		}
		return len(s.conns) == 1
	})
	return sc
}

// parked waits until exactly n workers are parked on sc.
func parked(t *testing.T, sc *serverConn, n int32) {
	t.Helper()
	testutil.Eventually(t, "parked workers", func() bool { return sc.parked.Load() == n })
}

// idle reports that sc's accounting shows nothing in flight.
func idle(sc *serverConn) bool {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.inFlight == 0 && len(sc.calls) == 0
}

// workerGoroutines counts the goroutines running serverConn.worker,
// parked or not, in the whole process.
func workerGoroutines() int {
	var buf bytes.Buffer
	_ = pprof.Lookup("goroutine").WriteTo(&buf, 2)
	return strings.Count(buf.String(), "orb.(*serverConn).worker(")
}

func echoHandler(_ context.Context, _ uint32, b []byte) ([]byte, error) { return b, nil }

// TestWorkerSequentialCallsStartOne: a caller that waits for each reply
// is served by one worker for the life of its connection. The worker
// writes the reply before it parks, so the test waits for it to have
// parked — the state, not a delay — before the next call.
func TestWorkerSequentialCallsStartOne(t *testing.T) {
	s := startServer(t)
	s.Register("echo", echoHandler)
	c := dial(t, s)
	sc := soleConn(t, s)
	for i := 0; i < 100; i++ {
		if _, err := c.Invoke("echo", 1, []byte("x")); err != nil {
			t.Fatal(err)
		}
		parked(t, sc, 1)
		if !idle(sc) {
			t.Fatal("a call is still accounted for after its worker parked")
		}
	}
	if n := sc.started.Load(); n != 1 {
		t.Errorf("100 sequential calls started %d workers, want 1", n)
	}
}

// TestWorkerConcurrentCallsParkUpToCap: K calls held open at once take K
// workers; when they end, maxParkedWorkers stay and the rest exit; and
// what is parked serves the next burst without a new start.
func TestWorkerConcurrentCallsParkUpToCap(t *testing.T) {
	const k = maxParkedWorkers + 4
	s := startServer(t)
	c := dial(t, s)
	sc := soleConn(t, s)
	// burst holds n calls open at once, then lets them all end.
	burst := func(key string, n int) {
		t.Helper()
		var entered sync.WaitGroup
		entered.Add(n)
		release := make(chan struct{})
		s.Register(key, func(_ context.Context, _ uint32, b []byte) ([]byte, error) {
			entered.Done()
			<-release
			return b, nil
		})
		errs := make(chan error, n)
		for i := 0; i < n; i++ {
			go func() {
				_, err := c.Invoke(key, 1, nil)
				errs <- err
			}()
		}
		entered.Wait()
		close(release)
		for i := 0; i < n; i++ {
			if err := <-errs; err != nil {
				t.Error(err)
			}
		}
	}
	burst("first", k)
	if n := sc.started.Load(); n != k {
		t.Errorf("%d concurrent calls started %d workers, want %d", k, n, k)
	}
	parked(t, sc, maxParkedWorkers)
	testutil.Eventually(t, "the workers over the cap to exit", func() bool { return workerGoroutines() == maxParkedWorkers })
	burst("second", maxParkedWorkers)
	if n := sc.started.Load(); n != k {
		t.Errorf("a burst the parked workers cover started %d more", n-k)
	}
	parked(t, sc, maxParkedWorkers)
}

// TestWorkerSurvivesPanicAndGoexit: a panic costs the call, not the
// worker; runtime.Goexit costs the worker too, and still neither strands
// the connection's accounting nor the call after it.
func TestWorkerSurvivesPanicAndGoexit(t *testing.T) {
	s := startServer(t)
	s.Register("echo", echoHandler)
	s.Register("panic", func(context.Context, uint32, []byte) ([]byte, error) { panic("boom") })
	s.Register("goexit", func(context.Context, uint32, []byte) ([]byte, error) {
		runtime.Goexit()
		return nil, nil
	})
	c := dial(t, s)
	sc := soleConn(t, s)
	for i, step := range []struct {
		key     string
		started int32 // workers started once the call is over
	}{
		{"echo", 1}, {"panic", 1}, {"echo", 1}, {"goexit", 1}, {"echo", 2}, {"goexit", 2}, {"panic", 3}, {"echo", 3},
	} {
		_, err := c.Invoke(step.key, 1, []byte("x"))
		if wantErr := step.key != "echo"; wantErr != errors.Is(err, ErrServerPanic) || (err != nil) != wantErr {
			t.Fatalf("step %d (%s): err = %v", i, step.key, err)
		}
		if step.key == "goexit" {
			parked(t, sc, 0) // the worker is gone
		} else {
			parked(t, sc, 1)
		}
		if !idle(sc) {
			t.Fatalf("step %d (%s): call still accounted for", i, step.key)
		}
		if n := sc.started.Load(); n != step.started {
			t.Fatalf("step %d (%s): %d workers started, want %d", i, step.key, n, step.started)
		}
	}
	if n := s.Stats().Panics; n != 4 {
		t.Errorf("Panics = %d, want 4", n)
	}
	// A oneway has no reply to carry the verdict; its slot must come back
	// all the same.
	for i, key := range []string{"goexit", "panic"} {
		if err := c.Send(key, 1, nil); err != nil {
			t.Fatal(err)
		}
		testutil.Eventually(t, "the oneway's verdict and its slot", func() bool {
			return s.Stats().Panics == int64(5+i) && idle(sc)
		})
	}
}

// TestWorkersEndWithConnection: however a connection ends — Close, a
// drain that completes, a drain that runs out of time, the peer going
// away — its workers, parked and running, end with it.
func TestWorkersEndWithConnection(t *testing.T) {
	for _, ending := range []string{"close", "drain", "drain expired", "peer reset"} {
		t.Run(ending, func(t *testing.T) {
			s := startServer(t)
			release := make(chan struct{})
			running := make(chan struct{})
			s.Register("echo", echoHandler)
			s.Register("hold", func(ctx context.Context, _ uint32, b []byte) ([]byte, error) {
				close(running)
				select {
				case <-release:
				case <-ctx.Done():
				}
				return b, nil
			})
			c, err := Dial(s.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			sc := soleConn(t, s)
			if _, err := c.Invoke("echo", 1, nil); err != nil {
				t.Fatal(err)
			}
			parked(t, sc, 1)
			held := make(chan error, 1)
			go func() {
				_, err := c.Invoke("hold", 1, nil)
				held <- err
			}()
			<-running // on the parked worker; the next call needs a second
			if _, err := c.Invoke("echo", 1, nil); err != nil {
				t.Fatal(err)
			}
			parked(t, sc, 1) // one worker parked, one inside a handler
			if n := workerGoroutines(); n != 2 {
				t.Fatalf("%d workers before the end, want 2", n)
			}

			wantHeld := ErrConnClosed
			drained := make(chan error, 1)
			switch ending {
			case "close":
				_ = s.Close()
			case "drain":
				go func() { drained <- s.Shutdown(context.Background()) }()
				testutil.Eventually(t, "the drain to begin", s.Draining)
				close(release)
				if err := <-drained; err != nil {
					t.Errorf("Shutdown: %v", err)
				}
				wantHeld = nil // a dispatched unary call finishes and replies
			case "drain expired":
				ctx, cancel := context.WithCancel(context.Background())
				go func() { drained <- s.Shutdown(ctx) }()
				testutil.Eventually(t, "the drain to begin", s.Draining)
				cancel()
				// The drain leaves a unary call's context alone, so this
				// handler ends only when released — after the connection was
				// force-closed under it.
				testutil.Eventually(t, "the forced close", func() bool { return c.Err() != nil })
				close(release)
				<-drained
			case "peer reset":
				_ = c.Close()
				testutil.Eventually(t, "the server to drop the connection", func() bool {
					s.mu.Lock()
					defer s.mu.Unlock()
					return len(s.conns) == 0
				})
			}
			if err := <-held; !errors.Is(err, wantHeld) {
				t.Errorf("held call: %v, want %v", err, wantHeld)
			}
			// The connection waited for its workers' last statement; the
			// profile can still catch one returning from it.
			testutil.Eventually(t, "every worker to be gone", func() bool { return workerGoroutines() == 0 })
		})
	}
}

// hookConn runs hook once, after the first Read that returned data and
// before the reader sees it, and closes nudged when a read deadline is set.
type hookConn struct {
	net.Conn
	hook   func()
	nudged chan struct{}
}

func (c *hookConn) SetReadDeadline(t time.Time) error {
	defer close(c.nudged)
	return c.Conn.SetReadDeadline(t)
}

func (c *hookConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 && c.hook != nil {
		c.hook()
		c.hook = nil
	}
	return n, err
}

// TestShutdownServesBufferedFrames pins what a drain does with frames the
// read loop had already taken off the connection when it began: whole
// ones are served — they were read, like any frame read a moment earlier
// — and a partial one is dropped with the connection, because the nudge
// that ends the read loop fails the read for its remainder.
func TestShutdownServesBufferedFrames(t *testing.T) {
	s := startServer(t)
	s.Register("echo", echoHandler)
	drained := make(chan error, 1)
	p := pipeConn(t, s, func(c net.Conn) net.Conn {
		hc := &hookConn{Conn: c, nudged: make(chan struct{})}
		hc.hook = func() {
			go func() { drained <- s.Shutdown(context.Background()) }()
			<-hc.nudged // the deadline that ends the read loop has landed
		}
		return hc
	})
	var batch []byte
	for id := uint64(1); id <= 3; id++ {
		batch = append(batch, raw(t, frame{kind: kindRequest, id: id, key: "echo", op: 1, body: []byte{byte(id)}})...)
	}
	batch = append(batch, raw(t, frame{kind: kindRequest, id: 4, key: "echo", op: 1, body: []byte{4}})[:20]...)
	p.write(batch)
	seen := map[uint64]bool{}
	for f := range p.frames { // until the server closes the connection
		if f.kind != kindReply || len(f.body) != 1 || uint64(f.body[0]) != f.id {
			t.Errorf("frame kind %d id %d body %x", f.kind, f.id, f.body)
		}
		seen[f.id] = true
	}
	if len(seen) != 3 || !seen[1] || !seen[2] || !seen[3] {
		t.Errorf("replies for ids %v, want 1, 2 and 3", seen)
	}
	if err := <-drained; err != nil {
		t.Errorf("Shutdown: %v", err)
	}
}

// TestBudgetAnchorsAtDecode pins where a frame's budget clock starts when
// its bytes arrived behind another frame's: when the read loop decodes
// its header, not when the bytes reached the buffer. Frame B (30 ms
// budget) arrives in the same read as frame A, whose refusal the peer
// leaves unread while the server's clock moves 100 ms; a pipe write blocks
// until it is read, so the read loop sits in A's refusal that long. B is
// then decoded with a fresh clock and served. Behind a frame that is
// admitted, not refused, the distance is that frame's admit time.
func TestBudgetAnchorsAtDecode(t *testing.T) {
	clk := testutil.NewClock()
	s := startServer(t, withClock(clk))
	s.Register("echo", echoHandler)
	near, far := net.Pipe()
	attach(s, near)
	defer far.Close()
	fr := newFrameReader(far, Limits{}.withDefaults(), false)
	a := raw(t, frame{kind: kindRequest, id: 1, key: "nobody", op: 1})
	b := raw(t, frame{kind: kindRequest, id: 2, key: "echo", budget: 30, op: 1, body: []byte("b")})
	if _, err := far.Write(append(a, b...)); err != nil {
		t.Fatal(err)
	}
	testutil.Eventually(t, "A's stamp", func() bool { return clk.Reads() > 0 })
	clk.Advance(100 * time.Millisecond)
	if f, err := fr.read(); err != nil || f.kind != kindError || f.id != 1 {
		t.Fatalf("A: kind %d id %d, %v", f.kind, f.id, err)
	}
	if f, err := fr.read(); err != nil || f.kind != kindReply || f.id != 2 {
		t.Fatalf("B: kind %d id %d body %q, %v; want its reply", f.kind, f.id, f.body, err)
	}
	if n := s.Stats().Expired; n != 0 {
		t.Errorf("Expired = %d, want 0", n)
	}
}
