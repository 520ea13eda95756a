package resil

import (
	"context"
	"testing"

	"repro/internal/orb"
	"repro/internal/testutil"
)

// TestCallAllocs pins what the pool adds to a call: a warm buffered call
// through resil allocates at most one object more than a bare orb round
// trip on the same server — the deadlineCtx that overlays CallTimeout —
// which is 3 in all: dispatch allocates nothing (the server's worker is
// parked on the connection, not started per call). The
// call description, the result and the attempt loop all stay on the
// stack; a regression here means one of them started to escape.
func TestCallAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race-detector instrumentation inflates allocation counts")
	}
	s, err := orb.NewServer("127.0.0.1:0", orb.WithBufPooling())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	s.Register("echo", func(ctx context.Context, op uint32, body []byte) ([]byte, error) {
		return body, nil
	})
	bare, err := orb.Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = bare.Close() })
	pool := newClient(t, s.Addr(), Options{})

	ctx := context.Background()
	payload := []byte("steady-state payload")
	viaOrb := func() {
		if _, err := bare.InvokeContext(ctx, "echo", 1, payload); err != nil {
			t.Fatal(err)
		}
	}
	viaPool := func() {
		if _, err := pool.InvokeContext(ctx, "echo", 1, payload); err != nil {
			t.Fatal(err)
		}
	}
	// Warm the server's pools and both connections before measuring.
	for i := 0; i < 50; i++ {
		viaOrb()
		viaPool()
	}
	orbAllocs := testing.AllocsPerRun(200, viaOrb)
	poolAllocs := testing.AllocsPerRun(200, viaPool)
	t.Logf("bare orb round trip %.1f allocs/op, pooled call %.1f", orbAllocs, poolAllocs)
	const ceiling = 3 // measured 3.0 over a bare 2.0; 4.0 over 3.0 with a goroutine per call
	if poolAllocs > orbAllocs+1 || poolAllocs > ceiling {
		t.Fatalf("pooled call allocates %.1f/op over a bare round trip's %.1f, ceiling +1 and %d", poolAllocs, orbAllocs, ceiling)
	}
}
