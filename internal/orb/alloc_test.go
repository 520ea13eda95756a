package orb

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"repro/internal/testutil"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
)

// TestRoundTripAllocs pins the allocation ceiling of one echo round trip
// on a pooled-buffer server: request frame written from a pooled buffer,
// request body read into a pooled buffer, reply written and the body
// recycled. The remaining allocations are the client-side reply body
// (clients don't pool — callers keep replies) and the slice header that
// carries the request body back into its pool; dispatch is not one, the
// call goes to a worker already parked on the connection. A regression
// here means a pool stopped being hit or a call started a goroutine.
func TestRoundTripAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race-detector instrumentation inflates allocation counts")
	}
	s := startServer(t, WithBufPooling())
	s.Register("echo", func(ctx context.Context, op uint32, body []byte) ([]byte, error) {
		return body, nil
	})
	c := dial(t, s)
	payload := []byte("steady-state payload")
	// Warm the pools and the connection before measuring.
	for i := 0; i < 50; i++ {
		if _, err := c.Invoke("echo", 1, payload); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(200, func() {
		if _, err := c.Invoke("echo", 1, payload); err != nil {
			t.Fatal(err)
		}
	})
	const ceiling = 2 // measured 2.0; 3.0 while every call started a goroutine
	if avg > ceiling {
		t.Fatalf("round trip allocates %.1f/op, ceiling %d", avg, ceiling)
	}
}

// TestConcurrentScratchIntegrity floods one connection with concurrent
// requests carrying distinct payloads and checks every echo comes back
// intact. It guards the per-connection read scratch and the pooled body
// buffers: a buffer recycled while a handler (or a reply write) still
// held it would surface here as a cross-request payload swap.
func TestConcurrentScratchIntegrity(t *testing.T) {
	s := startServer(t, WithBufPooling())
	s.Register("echo", func(ctx context.Context, op uint32, body []byte) ([]byte, error) {
		// Copy into a fresh reply so the server's reply write and the
		// pooled request body are distinct buffers, maximizing reuse
		// pressure on the pool while the contract (no retention past
		// return) still holds.
		return append([]byte(nil), body...), nil
	})
	c := dial(t, s)
	const workers = 16
	const perWorker = 200
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				want := []byte(fmt.Sprintf("worker-%02d-req-%04d-%s", w, i,
					bytes.Repeat([]byte{byte('a' + w)}, 64)))
				got, err := c.Invoke("echo", uint32(i), want)
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(got, want) {
					errs <- fmt.Errorf("worker %d call %d: reply corrupted: got %q want %q", w, i, got, want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
}

// TestStreamRecvAllocs pins what receiving a warm stream costs: a 4 MiB
// body sent in 32 KiB writes and drained by its reader, in the request
// direction (a server reads it) and the reply direction (a client does).
// Every chunk body comes from the body pool and goes back to it whole
// once read, so what remains is per call — the stream ends, the context
// watch, the tiny other body, 5–10 KiB per MiB — plus the chunks a class
// had to allocate because more were in flight than it keeps spares for
// (a write that outruns its credit goes out in two frames, so how many
// of each class a call needs varies): the figure is the least of three
// warm calls. Before a read chunk came back whole, every one was lost to
// the collector and allocated again, ≈ 1 MiB per MiB.
func TestStreamRecvAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race-detector instrumentation inflates allocation counts")
	}
	const size, split = 4 << 20, 32 << 10
	payload := patterned(size)
	s := startServer(t)
	s.RegisterStream("sink", func(ctx context.Context, op uint32, in *StreamReader, out *StreamWriter) error {
		_, err := io.Copy(io.Discard, in)
		return err
	})
	s.RegisterStream("source", func(ctx context.Context, op uint32, in *StreamReader, out *StreamWriter) error {
		if _, err := io.Copy(io.Discard, in); err != nil {
			return err
		}
		return writeSplit(out, payload, split)
	})
	c := dial(t, s)
	// No collection while measuring: sync.Pool may drop its caches at one.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, tc := range []struct {
		dir, key string
		send     []byte
	}{{"request", "sink", payload}, {"reply", "source", nil}} {
		t.Run(tc.dir, func(t *testing.T) {
			call := func() uint64 {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				sc, err := c.OpenStream(context.Background(), tc.key, 0)
				if err != nil {
					t.Fatal(err)
				}
				defer sc.Close()
				if err := writeSplit(sc, tc.send, split); err != nil {
					t.Fatal(err)
				}
				if err := sc.CloseSend(); err != nil {
					t.Fatal(err)
				}
				if _, err := io.Copy(io.Discard, sc); err != nil {
					t.Fatal(err)
				}
				runtime.ReadMemStats(&after)
				return after.TotalAlloc - before.TotalAlloc
			}
			call()
			perMiB := min(call(), call(), call()) / (size >> 20)
			t.Logf("warm %s stream allocated %d bytes per MiB received", tc.dir, perMiB)
			const ceiling = 64 << 10
			if perMiB > ceiling {
				t.Errorf("warm %s stream allocated %d bytes per MiB received, ceiling %d: chunk bodies were not reused", tc.dir, perMiB, ceiling)
			}
		})
	}
}

// writeSplit writes body to w in split-sized writes.
func writeSplit(w io.Writer, body []byte, split int) error {
	for off := 0; off < len(body); off += split {
		if _, err := w.Write(body[off:min(off+split, len(body))]); err != nil {
			return err
		}
	}
	return nil
}

// TestBodyPoolClasses pins the body pool's contract: an empty body takes
// no buffer, every body gets exactly its class's capacity, a buffer of
// another capacity is dropped rather than pooled, and a chunk class
// keeps at most one streamWindow of spares.
func TestBodyPoolClasses(t *testing.T) {
	if 1<<maxChunkClass != maxStreamChunk {
		t.Fatalf("the largest chunk class is %d bytes, a chunk frame up to %d", 1<<maxChunkClass, maxStreamChunk)
	}
	if b := getBodyBuf(0); cap(b) != 0 {
		t.Errorf("getBodyBuf(0) = %d-byte buffer, want none", cap(b))
	}
	for _, tc := range []struct{ n, cap int }{
		{1, 512}, {512, 512}, {513, 1 << 10}, {8 << 10, 8 << 10},
		{32 << 10, 32 << 10}, {32<<10 + 1, 64 << 10}, {maxPooledFrameBuf, maxPooledFrameBuf},
		{maxPooledFrameBuf + 1, maxPooledFrameBuf + 1},
	} {
		if b := getBodyBuf(tc.n); len(b) != tc.n || cap(b) != tc.cap {
			t.Errorf("getBodyBuf(%d): len %d cap %d, want cap %d", tc.n, len(b), cap(b), tc.cap)
		}
	}

	// Off-class capacities: a small one must not come back from its
	// neighbours' classes, a chunk-sized one must not enter a channel.
	putBodyBuf(make([]byte, 700))
	if b := getBodyBuf(700); cap(b) != 1<<10 {
		t.Errorf("a 700-byte buffer was pooled: getBodyBuf(700) has cap %d", cap(b))
	}
	spares := func() (n int) {
		for _, ch := range chunkBodies {
			n += len(ch)
		}
		return n
	}
	before := spares()
	putBodyBuf(make([]byte, 40<<10))
	putBodyBuf(make([]byte, 2*maxPooledFrameBuf))
	if after := spares(); after > before {
		t.Errorf("off-class buffers were pooled: chunk spares %d → %d", before, after)
	}

	for i, ch := range chunkBodies {
		size := 1 << (minChunkClass + i)
		for range 2 * streamWindow / size {
			putBodyBuf(make([]byte, size))
		}
		if held := len(ch) * size; held != streamWindow {
			t.Errorf("%d KiB class holds %d KiB of spares, want one window (%d KiB)", size>>10, held>>10, streamWindow>>10)
		}
		for len(ch) > 0 {
			<-ch
		}
	}
}

// TestConcurrentStreamScratchIntegrity runs eight streams at once on one
// connection, each carrying its own seeded bytes in writes of its own
// size (small and chunk classes both), through a handler that checks
// every byte against the stream's seed and echoes it; the client checks
// every byte of the echo. Chunk bodies go back to the pool the moment
// Read has copied them out, on both ends, so a reader still holding a
// slice into a recycled body surfaces here as another stream's bytes.
func TestConcurrentStreamScratchIntegrity(t *testing.T) {
	const streams = 8
	body := func(op uint32) []byte { return seeded(uint64(op)+1, 1<<20+int(op)*4099) }
	s := startServer(t)
	s.RegisterStream("check", func(ctx context.Context, op uint32, in *StreamReader, out *StreamWriter) error {
		want := body(op)
		buf := make([]byte, 32<<10)
		for off := 0; ; {
			n, err := in.Read(buf)
			if off+n > len(want) || !bytes.Equal(buf[:n], want[off:off+n]) {
				return fmt.Errorf("stream %d: request bytes %d..%d differ from its seed", op, off, off+n)
			}
			off += n
			if _, werr := out.Write(buf[:n]); werr != nil {
				return werr
			}
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
		}
	})
	c := dial(t, s)
	errs := make(chan error, streams)
	for op := uint32(0); op < streams; op++ {
		go func() {
			want := body(op)
			sc, err := c.OpenStream(context.Background(), "check", op)
			if err != nil {
				errs <- err
				return
			}
			defer sc.Close()
			got, err := streamAll(t, sc, want, 7<<10+int(op)*5<<10)
			if err == nil && !bytes.Equal(got, want) {
				err = fmt.Errorf("stream %d: echo of %d bytes differs from the %d sent", op, len(got), len(want))
			}
			errs <- err
		}()
	}
	for range streams {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// seeded returns n bytes of an xorshift sequence started from seed.
func seeded(seed uint64, n int) []byte {
	b := make([]byte, n)
	x := seed * 0x9e3779b97f4a7c15
	for i := range b {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		b[i] = byte(x)
	}
	return b
}
