package gateway

import (
	"context"
	"encoding/binary"
	"io"
	"repro/internal/testutil"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/orb"
	"repro/internal/value"
	"repro/internal/wire"
)

// TestFusedRelayAllocs pins the allocation ceiling of one fused-tier
// relay: client → gateway (request and reply lanes on the fast tier) →
// echo upstream → back. With pooled frame buffers on both servers and
// the request-lane output in a pooled buffer, what remains is the
// per-hop reply body and the reply-lane transcode output (both servers
// dispatch to a worker parked on the connection, which allocates nothing). This is the BenchmarkGatewayVsDirect fused number,
// enforced; a regression means a pool or memo fell off the hot path.
func TestFusedRelayAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race-detector instrumentation inflates allocation counts")
	}
	up, err := orb.NewServer("127.0.0.1:0", orb.WithBufPooling())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = up.Close() })
	up.Register("svc", func(ctx context.Context, op uint32, body []byte) ([]byte, error) {
		return body, nil
	})

	cfg := &Config{Upstream: up.Addr(), Routes: []RouteConfig{{
		Key: "svc", Op: 1,
		Request: &LaneConfig{From: mixDecl(), To: pairDecl()},
		Reply:   &LaneConfig{From: pairDecl(), To: mixDecl()},
	}}}
	g := New(Options{})
	t.Cleanup(func() { _ = g.Close() })
	if err := g.SetConfig(cfg); err != nil {
		t.Fatal(err)
	}
	srv, err := orb.NewServer("127.0.0.1:0", orb.WithBufPooling())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	g.Serve(srv)

	d := mixDecl()
	mt, err := New(Options{}).Lower(&d)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := wire.Marshal(mt, value.NewRecord(value.Real{V: 1.5}, value.NewInt(7)))
	if err != nil {
		t.Fatal(err)
	}
	c, err := orb.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })

	for i := 0; i < 50; i++ {
		if _, err := c.Invoke("svc", 1, payload); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(200, func() {
		if _, err := c.Invoke("svc", 1, payload); err != nil {
			t.Fatal(err)
		}
	})
	const ceiling = 6 // measured 6.0; 9 while each hop started a goroutine per call
	if avg > ceiling {
		t.Fatalf("fused relay allocates %.1f/op, ceiling %d", avg, ceiling)
	}
	if r := g.Stats().Routes[0]; r.FastTier == 0 || r.TreeTier != 0 {
		t.Fatalf("fast=%d tree=%d, relay left the fast tier", r.FastTier, r.TreeTier)
	}
}

// TestStreamRelayWarmAllocs pins what a 4 MiB fused stream may allocate
// once its route is warm. Client, gateway and sink share this process,
// and a warm call's payload bytes need no allocation: the chunk frames
// both servers read come from orb's body pool and go back to it whole
// once read, and the gateway's buffered prefix stays in the pooled
// shuttles it was read into. What is left is per call — stream ends, the
// reply — plus the chunks a class had to allocate because more were in
// flight than the one window of spares it keeps: 40–180 KiB, and on a
// call now and then up to 1.4 MiB, so the figure is the least of three
// warm calls. The prefix goes to the pooled stream engine one shuttle at
// a time, so the engine's windows stay under the size its pool keeps;
// pushed whole, they were regrown by doubling on every call (19.7 MiB).
// Before chunk bodies came back whole the figure was 9.5 MiB: each one
// went to the collector and was allocated again, zeroed, for the next
// frame, and the prefix was a fresh 1.06 MiB buffer.
func TestStreamRelayWarmAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race-detector instrumentation inflates allocation counts")
	}
	up, err := orb.NewServer("127.0.0.1:0", orb.WithBufPooling())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = up.Close() })
	up.RegisterStream("svc", func(ctx context.Context, op uint32, in *orb.StreamReader, out *orb.StreamWriter) error {
		n, err := io.Copy(io.Discard, in)
		if err != nil {
			return err
		}
		_, err = out.Write(binary.LittleEndian.AppendUint64(nil, uint64(n)))
		return err
	})
	cfg := &Config{Upstream: up.Addr(), Routes: []RouteConfig{{
		Key: "svc", Op: 1, Request: &LaneConfig{From: batchADecl(), To: batchBDecl()},
	}}}
	g, srv := startGateway(t, cfg, Options{})
	const records = (4 << 20) / 16
	payload := batchPayload(t, lowerDecl(t, batchADecl()), records)
	c := dialOrb(t, srv.Addr())

	// No collection while measuring: sync.Pool may drop the engine at one.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	stream := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sc, err := c.OpenStream(context.Background(), "svc", 1)
		if err != nil {
			t.Fatal(err)
		}
		defer sc.Close()
		for off := 0; off < len(payload); off += 32 << 10 {
			if _, err := sc.Write(payload[off:min(off+32<<10, len(payload))]); err != nil {
				t.Fatal(err)
			}
		}
		if err := sc.CloseSend(); err != nil {
			t.Fatal(err)
		}
		reply, err := io.ReadAll(sc)
		// The B image: the count, then 16 bytes a record from residue 4.
		if err != nil || len(reply) != 8 || binary.LittleEndian.Uint64(reply) != 4+16*records {
			t.Fatalf("sink replied % x, %v; want the size of %d transcoded records", reply, err, records)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	cold := stream()
	warm := min(stream(), stream(), stream())
	t.Logf("cold stream allocated %d KiB, warm %d KiB", cold>>10, warm>>10)
	const ceiling = 512 << 10
	if warm > ceiling {
		t.Errorf("warm 4 MiB stream allocated %d bytes, ceiling %d: chunk bodies, shuttles or the engine's windows were not reused", warm, ceiling)
	}
	if r := g.Stats().Routes[0]; r.Streamed != 4 {
		t.Fatalf("streamed = %d of 4 calls", r.Streamed)
	}
}
