package orb

import (
	"bytes"
	"context"
	"errors"
	"io"
	"strings"
	"testing"
	"time"
)

// streamEcho is a stream handler that copies the request body to the
// reply body chunk by chunk.
func streamEcho(ctx context.Context, op uint32, in *StreamReader, out *StreamWriter) error {
	buf := make([]byte, 32<<10)
	for {
		n, err := in.Read(buf)
		if n > 0 {
			if _, werr := out.Write(buf[:n]); werr != nil {
				return werr
			}
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// patterned returns n bytes whose content encodes position, so any
// reorder or loss breaks the comparison.
func patterned(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7 + i>>8)
	}
	return b
}

// streamAll writes body in split-sized chunks while concurrently
// draining the reply (a handler may start replying before the request
// ends — see the StreamCall doc). The write-leg error wins when the
// read leg failed collaterally.
func streamAll(t *testing.T, sc *StreamCall, body []byte, split int) ([]byte, error) {
	t.Helper()
	werr := make(chan error, 1)
	go func() {
		for off := 0; off < len(body); off += split {
			end := off + split
			if end > len(body) {
				end = len(body)
			}
			if _, err := sc.Write(body[off:end]); err != nil {
				werr <- err
				return
			}
		}
		werr <- sc.CloseSend()
	}()
	got, rerr := io.ReadAll(sc)
	if we := <-werr; we != nil && rerr != nil {
		return got, we
	} else if we != nil {
		return got, we
	}
	return got, rerr
}

func TestStreamRoundTrip(t *testing.T) {
	s := startServer(t)
	s.RegisterStream("echo", streamEcho)
	c := dial(t, s)

	// 2 MiB crosses the initial credit and the stream window several
	// times, so the transfer only completes if credit grants flow.
	body := patterned(2 << 20)
	sc, err := c.OpenStream(context.Background(), "echo", 4)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	got, err := streamAll(t, sc, body, 48<<10)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, body) {
		t.Fatalf("echo mismatch: %d bytes back, want %d", len(got), len(body))
	}
	if !sc.Finished() {
		t.Error("call must report finished after clean EOF")
	}
}

func TestStreamEmptyBody(t *testing.T) {
	s := startServer(t)
	s.RegisterStream("echo", streamEcho)
	c := dial(t, s)
	sc, err := c.OpenStream(context.Background(), "echo", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	got, err := streamAll(t, sc, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("got %d bytes for empty body", len(got))
	}
}

func TestStreamNoSuchObject(t *testing.T) {
	s := startServer(t)
	c := dial(t, s)
	sc, err := c.OpenStream(context.Background(), "nope", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	_ = sc.CloseSend()
	_, err = io.ReadAll(sc)
	if !errors.Is(err, ErrUnavailable) || !strings.Contains(err.Error(), "no stream object") {
		t.Fatalf("got %v, want ErrUnavailable naming the stream object", err)
	}
}

func TestStreamHandlerErrorBeforeReply(t *testing.T) {
	s := startServer(t)
	s.RegisterStream("fail", func(ctx context.Context, op uint32, in *StreamReader, out *StreamWriter) error {
		if _, err := io.Copy(io.Discard, in); err != nil {
			return err
		}
		return errors.New("declined after reading")
	})
	c := dial(t, s)
	sc, err := c.OpenStream(context.Background(), "fail", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	_, err = streamAll(t, sc, patterned(1000), 100)
	var re *RemoteError
	if !errors.As(err, &re) || !strings.Contains(err.Error(), "declined after reading") {
		t.Fatalf("got %v, want RemoteError with handler message", err)
	}
	// Writes after the failure fail fast rather than hanging on credit.
	if _, err := sc.Write([]byte("late")); err == nil {
		t.Error("write after terminal error must fail")
	}
}

func TestStreamMidReplyAbort(t *testing.T) {
	s := startServer(t)
	s.RegisterStream("abort", func(ctx context.Context, op uint32, in *StreamReader, out *StreamWriter) error {
		if _, err := io.Copy(io.Discard, in); err != nil {
			return err
		}
		if _, err := out.Write(patterned(100)); err != nil {
			return err
		}
		return errors.New("died mid-reply")
	})
	c := dial(t, s)
	sc, err := c.OpenStream(context.Background(), "abort", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	got, err := streamAll(t, sc, []byte("x"), 1)
	var re *RemoteError
	if !errors.As(err, &re) || !strings.Contains(err.Error(), "died mid-reply") {
		t.Fatalf("got %v, want mid-stream abort as RemoteError", err)
	}
	if len(got) > 100 {
		t.Fatalf("read %d bytes past the abort point", len(got))
	}
}

func TestStreamCreditBackpressure(t *testing.T) {
	// The server grants only its window; a handler that is not reading
	// must stall the client's writes there.
	s := startServer(t)
	release := make(chan struct{})
	s.RegisterStream("slow", func(ctx context.Context, op uint32, in *StreamReader, out *StreamWriter) error {
		<-release
		return streamEcho(ctx, op, in, out)
	})
	c := dial(t, s)
	sc, err := c.OpenStream(context.Background(), "slow", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()

	body := patterned(4 * streamWindow)
	done := make(chan error, 1)
	go func() {
		_, err := streamAll(t, sc, body, 16<<10)
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("writer finished (err=%v) while the handler was not reading: no flow control", err)
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestStreamCancelReachesHandler(t *testing.T) {
	s := startServer(t)
	handlerErr := make(chan error, 1)
	s.RegisterStream("hang", func(ctx context.Context, op uint32, in *StreamReader, out *StreamWriter) error {
		_, err := io.Copy(io.Discard, in) // blocks until the stream dies
		handlerErr <- err
		return err
	})
	c := dial(t, s)
	ctx, cancel := context.WithCancel(context.Background())
	sc, err := c.OpenStream(ctx, "hang", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	if _, err := sc.Write(patterned(100)); err != nil {
		t.Fatal(err)
	}
	cancel()
	if _, err := io.ReadAll(sc); !errors.Is(err, ErrCanceled) {
		t.Fatalf("client read: got %v, want ErrCanceled", err)
	}
	select {
	case err := <-handlerErr:
		if err == nil || err == io.EOF {
			t.Fatalf("handler read ended with %v, want a cancellation error", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("handler never observed the cancel")
	}
}

func TestStreamConnDeathMidStream(t *testing.T) {
	s := startServer(t)
	handlerErr := make(chan error, 1)
	s.RegisterStream("hang", func(ctx context.Context, op uint32, in *StreamReader, out *StreamWriter) error {
		_, err := io.Copy(io.Discard, in)
		handlerErr <- err
		return err
	})
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	sc, err := c.OpenStream(context.Background(), "hang", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sc.Write(patterned(2048)); err != nil {
		t.Fatal(err)
	}
	_ = c.Close() // connection dies with the stream open

	if _, err := io.ReadAll(sc); err == nil {
		t.Fatal("read must fail after connection death")
	}
	if _, err := sc.Write([]byte("more")); err == nil {
		t.Fatal("write must fail after connection death")
	}
	_ = sc.Close()
	select {
	case err := <-handlerErr:
		if err == nil || err == io.EOF {
			t.Fatalf("handler read ended with %v, want a connection error", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("handler never observed the connection death")
	}
}

func TestStreamBudgetPropagates(t *testing.T) {
	s := startServer(t)
	gotDeadline := make(chan bool, 1)
	s.RegisterStream("b", func(ctx context.Context, op uint32, in *StreamReader, out *StreamWriter) error {
		_, ok := ctx.Deadline()
		gotDeadline <- ok
		return streamEcho(ctx, op, in, out)
	})
	c := dial(t, s)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	sc, err := c.OpenStream(ctx, "b", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	if _, err := streamAll(t, sc, []byte("hi"), 2); err != nil {
		t.Fatal(err)
	}
	if !<-gotDeadline {
		t.Error("open-frame budget did not become a handler deadline")
	}
}

// No server sends a reply frame on a stream's id, so one is a protocol
// error: the call fails as on a credit overrun, and the frame is not
// taken for the whole reply.
func TestStreamReplyFrameIsProtoError(t *testing.T) {
	c, p := pipeClient(t, nil)
	sc, err := c.OpenStream(context.Background(), "src", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	open := p.next(kindStreamOpen)
	p.write(raw(t, frame{kind: kindReply, id: open.id, body: []byte("whole")}))
	if got, err := io.ReadAll(sc); !errors.Is(err, ErrStreamProto) {
		t.Fatalf("read %q, %v; want ErrStreamProto", got, err)
	}
}

func TestStreamUnregisterDropsHandler(t *testing.T) {
	s := startServer(t)
	s.RegisterStream("gone", streamEcho)
	s.Unregister("gone")
	c := dial(t, s)
	sc, err := c.OpenStream(context.Background(), "gone", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	_ = sc.CloseSend()
	if _, err := io.ReadAll(sc); err == nil {
		t.Fatal("unregistered stream object must not serve")
	}
}

func TestStreamConcurrentCalls(t *testing.T) {
	s := startServer(t)
	s.RegisterStream("echo", streamEcho)
	c := dial(t, s)
	const n = 8
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			body := patterned(100<<10 + i*1013)
			sc, err := c.OpenStream(context.Background(), "echo", uint32(i))
			if err != nil {
				errs <- err
				return
			}
			defer sc.Close()
			got, err := streamAll(t, sc, body, 9<<10)
			if err == nil && !bytes.Equal(got, body) {
				err = errors.New("echo mismatch")
			}
			errs <- err
		}(i)
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}
