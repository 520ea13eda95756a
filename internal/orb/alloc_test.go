package orb

import (
	"bytes"
	"context"
	"fmt"
	"repro/internal/testutil"
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
	s, err := NewServer("127.0.0.1:0", WithBufPooling())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
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
	s, err := NewServer("127.0.0.1:0", WithBufPooling())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
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
