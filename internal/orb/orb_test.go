package orb

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/testutil"
)

// readFrame decodes one frame with a reader of its own, which may take
// more than that frame off r: tests use it on a buffer holding one frame,
// or a connection whose peer writes nothing more until asked; a loop over
// a connection keeps one frameReader.
func readFrame(r io.Reader, lim Limits) (frame, error) {
	return newFrameReader(r, lim, false).read()
}

func startServer(t *testing.T, opts ...Option) *Server {
	t.Helper()
	s, err := NewServer("127.0.0.1:0", opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
}

func dial(t *testing.T, s *Server) *Client {
	t.Helper()
	return dialAddr(t, s.Addr())
}

func TestRequestReply(t *testing.T) {
	s := startServer(t)
	s.Register("echo", func(ctx context.Context, op uint32, body []byte) ([]byte, error) {
		out := append([]byte{byte(op)}, body...)
		return out, nil
	})
	c := dial(t, s)
	reply, err := c.Invoke("echo", 7, []byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reply, append([]byte{7}, "hello"...)) {
		t.Errorf("reply = %q", reply)
	}
}

func TestRemoteError(t *testing.T) {
	s := startServer(t)
	s.Register("bad", func(ctx context.Context, op uint32, body []byte) ([]byte, error) {
		return nil, errors.New("kaboom")
	})
	c := dial(t, s)
	_, err := c.Invoke("bad", 0, nil)
	var re *RemoteError
	if !errors.As(err, &re) || re.Msg != "kaboom" {
		t.Errorf("err = %v", err)
	}
}

func TestUnknownObject(t *testing.T) {
	s := startServer(t)
	c := dial(t, s)
	_, err := c.Invoke("ghost", 0, nil)
	if !errors.Is(err, ErrUnavailable) || !strings.Contains(err.Error(), `no object "ghost"`) {
		t.Errorf("err = %v, want ErrUnavailable naming the object", err)
	}
}

func TestConcurrentClients(t *testing.T) {
	s := startServer(t)
	s.Register("sq", func(ctx context.Context, op uint32, body []byte) ([]byte, error) {
		n := int(body[0])
		return []byte{byte(n * n % 251)}, nil
	})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		c := dial(t, s)
		wg.Add(1)
		go func(c *Client) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				reply, err := c.Invoke("sq", 0, []byte{byte(i)})
				if err != nil {
					t.Errorf("invoke: %v", err)
					return
				}
				if reply[0] != byte(i*i%251) {
					t.Errorf("sq(%d) = %d", i, reply[0])
					return
				}
			}
		}(c)
	}
	wg.Wait()
}

func TestPipelinedRequestsOneConnection(t *testing.T) {
	s := startServer(t)
	s.Register("id", func(ctx context.Context, op uint32, body []byte) ([]byte, error) {
		return body, nil
	})
	c := dial(t, s)
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := []byte(fmt.Sprintf("msg-%d", i))
			reply, err := c.Invoke("id", uint32(i), body)
			if err != nil {
				t.Errorf("invoke %d: %v", i, err)
				return
			}
			if !bytes.Equal(reply, body) {
				t.Errorf("reply %d = %q", i, reply)
			}
		}(i)
	}
	wg.Wait()
}

func TestOneway(t *testing.T) {
	s := startServer(t)
	var count atomic.Int32
	received := make(chan struct{}, 16)
	s.Register("sink", func(ctx context.Context, op uint32, body []byte) ([]byte, error) {
		count.Add(1)
		received <- struct{}{}
		return nil, nil
	})
	c := dial(t, s)
	for i := 0; i < 5; i++ {
		if err := c.Send("sink", 0, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		select {
		case <-received:
		case <-time.After(5 * time.Second):
			t.Fatalf("one-way message %d never arrived", i)
		}
	}
	if count.Load() != 5 {
		t.Errorf("count = %d", count.Load())
	}
}

func TestInvokeAfterServerClose(t *testing.T) {
	s := startServer(t)
	s.Register("x", func(ctx context.Context, op uint32, body []byte) ([]byte, error) { return nil, nil })
	c := dial(t, s)
	if _, err := c.Invoke("x", 0, nil); err != nil {
		t.Fatal(err)
	}
	_ = s.Close()
	if _, err := c.Invoke("x", 0, nil); err == nil {
		t.Error("invoke after server close succeeded")
	}
}

func TestLargeBody(t *testing.T) {
	s := startServer(t)
	s.Register("len", func(ctx context.Context, op uint32, body []byte) ([]byte, error) {
		return []byte{byte(len(body) >> 16)}, nil
	})
	c := dial(t, s)
	body := make([]byte, 1<<20)
	reply, err := c.Invoke("len", 0, body)
	if err != nil {
		t.Fatal(err)
	}
	if reply[0] != byte(len(body)>>16) {
		t.Errorf("reply = %d", reply[0])
	}
}

func TestRegisterReplaces(t *testing.T) {
	s := startServer(t)
	s.Register("v", func(ctx context.Context, op uint32, body []byte) ([]byte, error) { return []byte{1}, nil })
	s.Register("v", func(ctx context.Context, op uint32, body []byte) ([]byte, error) { return []byte{2}, nil })
	c := dial(t, s)
	reply, err := c.Invoke("v", 0, nil)
	if err != nil || reply[0] != 2 {
		t.Errorf("reply = %v, %v", reply, err)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := frame{kind: kindRequest, id: 42, key: "obj/1", op: 3, body: []byte("payload")}
	if _, err := writeFrame(&buf, in, Limits{}.withDefaults()); err != nil {
		t.Fatal(err)
	}
	out, err := readFrame(&buf, Limits{}.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	if out.kind != in.kind || out.id != in.id || out.key != in.key || out.op != in.op || !bytes.Equal(out.body, in.body) {
		t.Errorf("frame = %+v", out)
	}
}

func TestBadMagic(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString("XXXX")
	buf.Write(make([]byte, 32))
	if _, err := readFrame(&buf, Limits{}.withDefaults()); err == nil {
		t.Error("bad magic accepted")
	}
}

func TestFrameLimits(t *testing.T) {
	var buf bytes.Buffer
	// Oversized body rejected at write time.
	big := frame{kind: kindRequest, body: make([]byte, DefaultMaxBody+1)}
	if _, err := writeFrame(&buf, big, Limits{}.withDefaults()); err == nil {
		t.Error("oversized body accepted by writeFrame")
	}
	// Oversized key rejected at read time.
	buf.Reset()
	buf.WriteString(magic)
	buf.WriteByte(protoVersion)
	buf.WriteByte(kindRequest)
	buf.Write(make([]byte, 8))                // id
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF}) // keyLen = huge
	if _, err := readFrame(&buf, Limits{}.withDefaults()); err == nil {
		t.Error("oversized key accepted by readFrame")
	}
	// Unsupported version rejected.
	buf.Reset()
	buf.WriteString(magic)
	buf.WriteByte(9)
	buf.Write(make([]byte, 40))
	if _, err := readFrame(&buf, Limits{}.withDefaults()); err == nil {
		t.Error("unsupported version accepted")
	}
}

// TestVersionCheck pins the one protocol version from both sides of a
// connection: a frame carrying any other version byte ends it.
func TestVersionCheck(t *testing.T) {
	lim := Limits{}.withDefaults()
	t.Run("server", func(t *testing.T) {
		for _, ver := range []byte{1, 2, 4} {
			s := startServer(t)
			var ran atomic.Int32
			s.Register("echo", func(ctx context.Context, op uint32, body []byte) ([]byte, error) {
				ran.Add(1)
				return body, nil
			})
			conn, err := net.Dial("tcp", s.Addr())
			if err != nil {
				t.Fatal(err)
			}
			req := raw(t, frame{kind: kindRequest, id: 1, key: "echo", body: []byte("hi")})
			req[4] = ver
			if _, err := conn.Write(req); err != nil {
				t.Fatal(err)
			}
			_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
			f, err := readFrame(conn, lim)
			switch {
			case err == nil:
				t.Errorf("v%d request answered with a frame of kind %d; want the connection dropped", ver, f.kind)
			case errors.Is(err, os.ErrDeadlineExceeded):
				t.Errorf("v%d request: connection still open after 2s", ver)
			}
			if n := ran.Load(); n != 0 {
				t.Errorf("v%d request ran the handler %d times", ver, n)
			}
			_ = conn.Close()
		}
	})
	t.Run("client", func(t *testing.T) {
		c, p := pipeClient(t, nil)
		errs := make(chan error, 2)
		for i := 0; i < cap(errs); i++ {
			go func() {
				_, err := c.Invoke("echo", 0, nil)
				errs <- err
			}()
		}
		p.next(kindRequest)
		req := p.next(kindRequest)
		reply := raw(t, frame{kind: kindReply, id: req.id, body: []byte("v1")})
		reply[4] = 1
		p.write(reply)
		for i := 0; i < cap(errs); i++ {
			select {
			case err := <-errs:
				if !errors.Is(err, ErrConnClosed) || !errors.Is(err, errVersion) || !strings.Contains(err.Error(), "version 1") {
					t.Errorf("in-flight call ended with %v; want ErrConnClosed naming version 1", err)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("an in-flight call outlived a frame with another version byte")
			}
		}
	})
}

// --- configurable frame limits (write and read side) ---

func TestWriteSideFrameLimits(t *testing.T) {
	s := startServer(t)
	s.Register("echo", func(ctx context.Context, op uint32, body []byte) ([]byte, error) { return body, nil })
	c, err := Dial(s.Addr(), WithMaxBody(64), WithMaxKey(8))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })

	if _, err := c.Invoke("echo", 0, make([]byte, 65)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized body error = %v, want ErrFrameTooLarge", err)
	}
	if _, err := c.Invoke("123456789", 0, nil); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized key error = %v, want ErrFrameTooLarge", err)
	}
	if err := c.Send("123456789", 0, nil); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized oneway key error = %v, want ErrFrameTooLarge", err)
	}
	// The rejection happens before any bytes hit the wire, so the
	// connection stays usable.
	reply, err := c.Invoke("echo", 0, make([]byte, 64))
	if err != nil || len(reply) != 64 {
		t.Fatalf("in-limit invoke after rejection: len=%d err=%v", len(reply), err)
	}
}

func TestReadSideFrameLimitServer(t *testing.T) {
	s := startServer(t, WithMaxBody(64))
	s.Register("echo", func(ctx context.Context, op uint32, body []byte) ([]byte, error) { return body, nil })

	c := dialAddr(t, s.Addr())
	// The client happily writes 1 KiB; the server's read side must refuse
	// it and drop the connection.
	if _, err := c.Invoke("echo", 0, make([]byte, 1024)); err == nil {
		t.Fatal("oversized request was served")
	}
	// A fresh connection with a conforming request still works.
	c2 := dialAddr(t, s.Addr())
	if _, err := c2.Invoke("echo", 0, make([]byte, 64)); err != nil {
		t.Fatalf("in-limit request on fresh connection: %v", err)
	}
}

func TestReadSideFrameLimitClient(t *testing.T) {
	s := startServer(t)
	s.Register("blow", func(ctx context.Context, op uint32, body []byte) ([]byte, error) {
		return make([]byte, 1024), nil
	})
	c, err := Dial(s.Addr(), WithMaxBody(64))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	_, err = c.Invoke("blow", 0, nil)
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized reply error = %v, want ErrFrameTooLarge", err)
	}
}

func dialAddr(t *testing.T, addr string) *Client {
	t.Helper()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

// --- per-request dispatch: no head-of-line blocking ---

// A slow handler must not delay a fast handler's reply on the same
// connection: serveConn dispatches each request frame in its own
// goroutine.
func TestNoHeadOfLineBlocking(t *testing.T) {
	s := startServer(t)
	slowRelease := make(chan struct{})
	s.Register("slow", func(ctx context.Context, op uint32, body []byte) ([]byte, error) {
		<-slowRelease
		return []byte("slow"), nil
	})
	s.Register("fast", func(ctx context.Context, op uint32, body []byte) ([]byte, error) {
		return []byte("fast"), nil
	})
	c := dial(t, s)

	slowDone := make(chan error, 1)
	go func() {
		_, err := c.Invoke("slow", 0, nil)
		slowDone <- err
	}()

	// The fast request is written after the slow one is in flight, on the
	// same connection, and must complete while slow is still blocked.
	deadline := time.After(5 * time.Second)
	fastDone := make(chan error, 1)
	go func() {
		reply, err := c.Invoke("fast", 0, nil)
		if err == nil && string(reply) != "fast" {
			err = fmt.Errorf("reply %q", reply)
		}
		fastDone <- err
	}()
	select {
	case err := <-fastDone:
		if err != nil {
			t.Fatalf("fast invoke: %v", err)
		}
	case <-deadline:
		t.Fatal("fast request blocked behind slow handler")
	}

	close(slowRelease)
	if err := <-slowDone; err != nil {
		t.Fatalf("slow invoke: %v", err)
	}
}

// --- context deadlines and cancellation ---

func TestInvokeContextDeadline(t *testing.T) {
	s := startServer(t)
	release := make(chan struct{})
	s.Register("stall", func(ctx context.Context, op uint32, body []byte) ([]byte, error) {
		<-release
		return []byte("late"), nil
	})
	s.Register("echo", func(ctx context.Context, op uint32, body []byte) ([]byte, error) { return body, nil })
	c := dial(t, s)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := c.InvokeContext(ctx, "stall", 0, nil)
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	c.mu.Lock()
	n := len(c.pending)
	c.mu.Unlock()
	if n != 0 {
		t.Errorf("%d pending entries after abandoned call", n)
	}
	// The connection stays usable, and the abandoned call's late reply is
	// discarded rather than misdelivered.
	close(release)
	reply, err := c.Invoke("echo", 0, []byte("still alive"))
	if err != nil || string(reply) != "still alive" {
		t.Fatalf("invoke after deadline = %q, %v", reply, err)
	}
}

func TestInvokeContextCancel(t *testing.T) {
	s := startServer(t)
	entered, release := make(chan struct{}), make(chan struct{})
	t.Cleanup(func() { close(release) })
	s.Register("stall", func(ctx context.Context, op uint32, body []byte) ([]byte, error) {
		close(entered)
		<-release
		return nil, nil
	})
	c := dial(t, s)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-entered
		cancel()
	}()
	if _, err := c.InvokeContext(ctx, "stall", 0, nil); !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	// A context that is dead on arrival never touches the wire.
	if _, err := c.InvokeContext(ctx, "stall", 0, nil); !errors.Is(err, ErrCanceled) {
		t.Fatalf("pre-canceled err = %v, want ErrCanceled", err)
	}
}

// --- connection death with calls in flight ---

// When the connection dies mid-call, every in-flight Invoke must fail
// promptly with the typed connection error and the pending-call map must
// come back empty — no leaked entries, no caller blocked forever.
func TestConnectionDeathFailsInFlightCalls(t *testing.T) {
	s := startServer(t)
	const inflight = 8
	var entered sync.WaitGroup
	entered.Add(inflight)
	release := make(chan struct{})
	t.Cleanup(func() { close(release) })
	s.Register("stall", func(ctx context.Context, op uint32, body []byte) ([]byte, error) {
		entered.Done()
		<-release
		return nil, nil
	})
	c := dial(t, s)

	errs := make(chan error, inflight)
	for i := 0; i < inflight; i++ {
		go func() {
			_, err := c.Invoke("stall", 0, nil)
			errs <- err
		}()
	}
	entered.Wait() // every call is in the client's table, and in a handler

	// The transport dies under the client (not a graceful Close).
	_ = c.conn.Close()
	for i := 0; i < inflight; i++ {
		if err := <-errs; !errors.Is(err, ErrConnClosed) {
			t.Errorf("in-flight err = %v, want ErrConnClosed", err)
		}
	}
	c.mu.Lock()
	n := len(c.pending)
	c.mu.Unlock()
	if n != 0 {
		t.Errorf("%d pending entries leaked after connection death", n)
	}
	// Later calls fail fast with the recorded terminal error.
	if _, err := c.Invoke("stall", 0, nil); !errors.Is(err, ErrConnClosed) {
		t.Errorf("post-death err = %v, want ErrConnClosed", err)
	}
}

// --- read-side key limits ---

func TestReadSideKeyLimit(t *testing.T) {
	cases := []struct {
		name    string
		keyLen  int
		maxKey  int
		wantErr bool
	}{
		{"at-limit", 8, 8, false},
		{"over-limit", 9, 8, true},
		{"default-at-limit", DefaultMaxKey, 0, false},
		{"default-over-limit", DefaultMaxKey + 1, 0, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			key := strings.Repeat("k", tc.keyLen)
			var buf bytes.Buffer
			// A permissive writer produces the frame; the limits under
			// test apply on the read side only.
			wlim := Limits{MaxKey: tc.keyLen, MaxBody: DefaultMaxBody}
			if _, err := writeFrame(&buf, frame{kind: kindRequest, id: 1, key: key}, wlim); err != nil {
				t.Fatal(err)
			}
			f, err := readFrame(&buf, Limits{MaxKey: tc.maxKey}.withDefaults())
			if tc.wantErr {
				if !errors.Is(err, ErrFrameTooLarge) {
					t.Fatalf("err = %v, want ErrFrameTooLarge", err)
				}
				return
			}
			if err != nil || f.key != key {
				t.Fatalf("readFrame = %q, %v", f.key, err)
			}
		})
	}
}

func TestReadSideKeyLimitServer(t *testing.T) {
	s := startServer(t, WithMaxKey(8))
	s.Register("12345678", func(ctx context.Context, op uint32, body []byte) ([]byte, error) { return body, nil })

	// The client's default limits allow the long key; the server's read
	// side must refuse it and drop the connection.
	c := dialAddr(t, s.Addr())
	if _, err := c.Invoke("123456789", 0, nil); err == nil {
		t.Fatal("oversized key was served")
	}
	c2 := dialAddr(t, s.Addr())
	if _, err := c2.Invoke("12345678", 0, []byte("x")); err != nil {
		t.Fatalf("in-limit key on fresh connection: %v", err)
	}
}

// --- reply after close ---

// A handler that finishes after its client has gone must not wedge or
// crash the server: the reply write fails quietly and other connections
// keep working.
func TestReplyAfterClientClose(t *testing.T) {
	s := startServer(t)
	entered := make(chan struct{})
	release := make(chan struct{})
	s.Register("stall", func(ctx context.Context, op uint32, body []byte) ([]byte, error) {
		close(entered)
		<-release
		return []byte("too late"), nil
	})
	s.Register("echo", func(ctx context.Context, op uint32, body []byte) ([]byte, error) { return body, nil })

	c := dial(t, s)
	go func() { _, _ = c.Invoke("stall", 0, nil) }()
	<-entered
	_ = c.Close()
	close(release) // the reply now goes to a dead connection

	// The server keeps serving other clients.
	c2 := dial(t, s)
	reply, err := c2.Invoke("echo", 0, []byte("ok"))
	if err != nil || string(reply) != "ok" {
		t.Fatalf("invoke after orphaned reply = %q, %v", reply, err)
	}
}

// --- graceful shutdown ---

// slowServer serves a "slow" handler that stays in flight until release
// is closed; entered is closed once it has started.
func slowServer(t *testing.T) (s *Server, entered, release chan struct{}) {
	s = startServer(t)
	entered, release = make(chan struct{}), make(chan struct{})
	s.Register("slow", func(ctx context.Context, op uint32, body []byte) ([]byte, error) {
		close(entered)
		<-release
		return []byte("drained"), nil
	})
	return s, entered, release
}

// shutdown starts s.Shutdown(ctx) once the call is in its handler, and
// returns when the drain has begun, with the channel Shutdown's result
// arrives on: it must not while the handler runs.
func shutdown(t *testing.T, s *Server, ctx context.Context, entered chan struct{}) chan error {
	t.Helper()
	<-entered
	done := make(chan error, 1)
	go func() { done <- s.Shutdown(ctx) }()
	testutil.Eventually(t, "the drain to begin", s.Draining)
	return done
}

func TestShutdownDrainsInFlight(t *testing.T) {
	s, entered, release := slowServer(t)
	c := dial(t, s)

	got := make(chan struct{})
	var reply []byte
	var invokeErr error
	go func() {
		reply, invokeErr = c.Invoke("slow", 0, nil)
		close(got)
	}()
	done := shutdown(t, s, context.Background(), entered)
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	<-got
	if invokeErr != nil || string(reply) != "drained" {
		t.Fatalf("in-flight call across drain = %q, %v", reply, invokeErr)
	}
	// The drained server accepts no new work.
	if c2, err := Dial(s.Addr()); err == nil {
		t.Cleanup(func() { _ = c2.Close() })
		if _, err := c2.Invoke("slow", 0, nil); err == nil {
			t.Error("invoke on a drained server succeeded")
		}
	}
}

func TestShutdownForceClosesOnContextExpiry(t *testing.T) {
	s, entered, release := slowServer(t)
	c := dial(t, s)

	errs := make(chan error, 1)
	go func() {
		_, err := c.Invoke("slow", 0, nil)
		errs <- err
	}()
	ctx, cancel := context.WithCancel(context.Background())
	done := shutdown(t, s, ctx, entered)
	cancel() // the drain runs out of time
	// The client sees its connection force-closed while the handler runs.
	select {
	case err := <-errs:
		if !errors.Is(err, ErrConnClosed) {
			t.Errorf("force-closed call err = %v, want ErrConnClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Error("force-closed call never returned")
	}
	select {
	case <-done:
		t.Error("Shutdown returned before the forced-out handler ended")
	default:
	}
	close(release)
	<-done
}
