package gateway

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mtype"
	"repro/internal/orb"
	"repro/internal/resil"
	"repro/internal/testutil"
	"repro/internal/value"
	"repro/internal/wire"
)

// The streaming fixture: IDL sequences of permuted records, so the
// request lane fuses into a transcoder with a streamable sequence root.
const (
	batchASrc = "struct Rec { long n; double x; };\ntypedef sequence<Rec> Batch;"
	batchBSrc = "struct Rec { double x; long n; };\ntypedef sequence<Rec> Batch;"
)

func batchADecl() DeclConfig { return DeclConfig{Lang: "idl", Source: batchASrc, Decl: "Batch"} }
func batchBDecl() DeclConfig { return DeclConfig{Lang: "idl", Source: batchBSrc, Decl: "Batch"} }

// batchPayload marshals n records of the A shape.
func batchPayload(t *testing.T, mtA *mtype.Type, n int) []byte {
	t.Helper()
	recs := make([]value.Value, n)
	for i := range recs {
		recs[i] = value.NewRecord(value.NewInt(int64(i)), value.Real{V: float64(i) + 0.5})
	}
	payload, err := wire.Marshal(mtA, value.FromSlice(recs))
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

// upstreamStreamEcho starts an orb server echoing both buffered calls
// and streams on key, validating buffered bodies against ty.
func upstreamStreamEcho(t *testing.T, key string, ty *mtype.Type) *orb.Server {
	t.Helper()
	s := upstreamEcho(t, key, ty)
	s.RegisterStream(key, func(ctx context.Context, op uint32, in *orb.StreamReader, out *orb.StreamWriter) error {
		buf := make([]byte, 64<<10)
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
	})
	return s
}

// streamThrough opens a stream on the gateway, writes payload in uneven
// splits, and returns the reply body. Payload and reply must each fit a
// credit window for the sequential write-then-read to be deadlock-free.
func streamThrough(t *testing.T, c *orb.Client, key string, op uint32, payload []byte) ([]byte, error) {
	t.Helper()
	sc, err := c.OpenStream(context.Background(), key, op)
	if err != nil {
		return nil, err
	}
	defer sc.Close()
	splits := []int{1, 7, 4096, 13, 32 << 10}
	for off, i := 0, 0; off < len(payload); i++ {
		n := splits[i%len(splits)]
		if off+n > len(payload) {
			n = len(payload) - off
		}
		if _, err := sc.Write(payload[off : off+n]); err != nil {
			return nil, err
		}
		off += n
	}
	if err := sc.CloseSend(); err != nil {
		return nil, err
	}
	return io.ReadAll(sc)
}

// TestStreamRelayEndToEnd: a stream-opened call whose body outgrows the
// threshold relays chunk-by-chunk through the fused request lane, and
// the bytes the client reads back match the tree-engine oracle.
func TestStreamRelayEndToEnd(t *testing.T) {
	mtB := lowerDecl(t, batchBDecl())
	up := upstreamStreamEcho(t, "svc", mtB)

	cfg := &Config{
		Upstream: up.Addr(),
		Routes: []RouteConfig{{
			Name:    "batch",
			Key:     "svc",
			Op:      7,
			Request: &LaneConfig{From: batchADecl(), To: batchBDecl()},
			Reply:   &LaneConfig{From: batchBDecl(), To: batchADecl()},
		}},
	}
	g, srv := startGateway(t, cfg, Options{StreamThreshold: 4 << 10})

	mtA := lowerDecl(t, batchADecl())
	payload := batchPayload(t, mtA, 8192) // ~128 KiB, well over the 4 KiB threshold

	c := dialOrb(t, srv.Addr())
	got, err := streamThrough(t, c, "svc", 7, payload)
	if err != nil {
		t.Fatal(err)
	}

	fwd := oracle(t, batchADecl(), batchBDecl(), payload)
	want := oracle(t, batchBDecl(), batchADecl(), fwd)
	if !bytes.Equal(got, want) {
		t.Fatalf("streamed reply diverged from oracle: %d vs %d bytes", len(got), len(want))
	}

	st := g.Stats()
	r := st.Routes[0]
	if r.Streamed != 1 {
		t.Errorf("streamed = %d, want 1", r.Streamed)
	}
	if r.Requests != 1 {
		t.Errorf("requests = %d, want 1", r.Requests)
	}
	if r.FastTier != 2 {
		t.Errorf("fast tier = %d, want 2 (streamed request lane + buffered reply lane)", r.FastTier)
	}
}

// TestStreamUnderThresholdDiverts: a stream-opened call that finishes
// within the threshold takes the ordinary buffered relay — no streamed
// count, full resilience.
func TestStreamUnderThresholdDiverts(t *testing.T) {
	mtB := lowerDecl(t, batchBDecl())
	up := upstreamStreamEcho(t, "svc", mtB)

	cfg := &Config{
		Upstream: up.Addr(),
		Routes: []RouteConfig{{
			Key:     "svc",
			Op:      7,
			Request: &LaneConfig{From: batchADecl(), To: batchBDecl()},
			Reply:   &LaneConfig{From: batchBDecl(), To: batchADecl()},
		}},
	}
	g, srv := startGateway(t, cfg, Options{}) // default 1 MiB threshold

	mtA := lowerDecl(t, batchADecl())
	payload := batchPayload(t, mtA, 16) // a few hundred bytes

	c := dialOrb(t, srv.Addr())
	got, err := streamThrough(t, c, "svc", 7, payload)
	if err != nil {
		t.Fatal(err)
	}
	fwd := oracle(t, batchADecl(), batchBDecl(), payload)
	want := oracle(t, batchBDecl(), batchADecl(), fwd)
	if !bytes.Equal(got, want) {
		t.Fatal("diverted reply diverged from oracle")
	}
	r := g.Stats().Routes[0]
	if r.Streamed != 0 {
		t.Errorf("streamed = %d, want 0 for a sub-threshold body", r.Streamed)
	}
	if r.Requests != 1 {
		t.Errorf("requests = %d, want 1", r.Requests)
	}
}

// TestStreamNonStreamableLaneOverCap: a record-rooted lane has no
// chunk-at-a-time form, so an over-budget streamed body must be shed
// with a typed budget rejection instead of buffering without bound.
func TestStreamNonStreamableLaneOverCap(t *testing.T) {
	mtB := lowerDecl(t, pairDecl())
	up := upstreamStreamEcho(t, "svc", mtB)

	cfg := &Config{
		Upstream: up.Addr(),
		Routes: []RouteConfig{{
			Key:     "svc",
			Op:      7,
			Request: &LaneConfig{From: mixDecl(), To: pairDecl()},
			Reply:   &LaneConfig{From: pairDecl(), To: mixDecl()},
		}},
	}
	g, srv := startGateway(t, cfg, Options{MaxPayload: 8 << 10, StreamThreshold: 1 << 10})

	c := dialOrb(t, srv.Addr())
	sc, err := c.OpenStream(context.Background(), "svc", 7)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	junk := bytes.Repeat([]byte{0xab}, 4<<10)
	var werr error
	for i := 0; i < 8 && werr == nil; i++ { // 32 KiB, past the 8 KiB payload cap
		_, werr = sc.Write(junk)
	}
	if werr == nil {
		werr = sc.CloseSend()
	}
	_, rerr := io.ReadAll(sc)
	err = rerr
	if err == nil {
		err = werr
	}
	if err == nil {
		t.Fatal("over-cap stream on a non-streamable lane succeeded")
	}
	var re *orb.RemoteError
	if !errors.As(err, &re) || !strings.Contains(err.Error(), "streamable request lane") {
		t.Fatalf("err = %v, want remote budget rejection naming the lane constraint", err)
	}
	if r := g.Stats().Routes[0]; r.BudgetRejects != 1 {
		t.Errorf("budget rejects = %d, want 1", r.BudgetRejects)
	}
}

// TestConcurrentStreamScratchIntegrity is orb's test of the same name
// run through the gateway's two streaming lanes: per lane, eight
// concurrent streams past the threshold, each carrying its own seeded
// bytes, to a sink that CRCs every byte it reads and answers with the
// sum. On the passthrough lane the client checks it against the bytes it
// sent, on the fused lane against the oracle's B image of them. Chunk
// bodies are reused on both hops and the prefix sits in pooled shuttles,
// so a reader still holding a slice into a recycled buffer surfaces here
// as a wrong sum.
func TestConcurrentStreamScratchIntegrity(t *testing.T) {
	const streams = 8
	up, err := orb.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = up.Close() })
	sink := func(ctx context.Context, op uint32, in *orb.StreamReader, out *orb.StreamWriter) error {
		// Reads smaller than any chunk: most chunks are read in several.
		h := crc32.NewIEEE()
		n, err := io.CopyBuffer(h, in, make([]byte, 5000))
		if err != nil {
			return err
		}
		_, err = out.Write(binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(nil, uint32(n)), h.Sum32()))
		return err
	}
	up.RegisterStream("pass", sink)
	up.RegisterStream("fused", sink)
	cfg := &Config{Upstream: up.Addr(), Routes: []RouteConfig{
		{Key: "pass", Op: 1},
		{Key: "fused", Op: 1, Request: &LaneConfig{From: batchADecl(), To: batchBDecl()}},
	}}
	g, srv := startGateway(t, cfg, Options{StreamThreshold: 16 << 10})
	c := dialOrb(t, srv.Addr())
	mtA := lowerDecl(t, batchADecl())

	for _, lane := range []string{"pass", "fused"} {
		t.Run(lane, func(t *testing.T) {
			// Payloads and the sums they must arrive as, built here: the
			// oracle may only fail the test from its own goroutine.
			payloads, sums := make([][]byte, streams), make([][]byte, streams)
			for i := range payloads {
				x := uint64(i+1) * 0x9e3779b97f4a7c15
				next := func() uint64 { x ^= x << 13; x ^= x >> 7; x ^= x << 17; return x }
				var arrives []byte
				if lane == "pass" {
					payloads[i] = make([]byte, 200<<10+i*4099)
					for j := range payloads[i] {
						payloads[i][j] = byte(next())
					}
					arrives = payloads[i]
				} else {
					recs := make([]value.Value, 12000+i*97)
					for j := range recs {
						recs[j] = value.NewRecord(value.NewInt(int64(int32(next()))), value.Real{V: float64(next()>>11) / 3})
					}
					if payloads[i], err = wire.Marshal(mtA, value.FromSlice(recs)); err != nil {
						t.Fatal(err)
					}
					arrives = oracle(t, batchADecl(), batchBDecl(), payloads[i])
				}
				sums[i] = binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(nil, uint32(len(arrives))), crc32.ChecksumIEEE(arrives))
			}
			errs := make(chan error, streams)
			for i := range payloads {
				go func() {
					got, err := streamThrough(t, c, lane, 1, payloads[i])
					if err == nil && !bytes.Equal(got, sums[i]) {
						err = fmt.Errorf("stream %d: sink summed % x, want % x", i, got, sums[i])
					}
					errs <- err
				}()
			}
			for range streams {
				if err := <-errs; err != nil {
					t.Fatal(err)
				}
			}
		})
	}
	for _, r := range g.Stats().Routes {
		if r.Streamed != streams {
			t.Errorf("route %s streamed %d of %d calls", r.Name, r.Streamed, streams)
		}
	}
}

// TestStreamUpstreamDeathMidStream is the streaming arm of the chaos
// no-leak coverage: the upstream dies after consuming the first chunks
// of a relayed stream. The client must get a typed mid-stream error —
// not a hang — and the gateway must leak neither goroutines nor pooled
// upstream connections.
func TestStreamUpstreamDeathMidStream(t *testing.T) {
	up := orbServer(t)
	var seen atomic.Int64
	gotEnough := make(chan struct{})
	var once atomic.Bool
	up.RegisterStream("svc", func(ctx context.Context, op uint32, in *orb.StreamReader, out *orb.StreamWriter) error {
		buf := make([]byte, 32<<10)
		for {
			n, err := in.Read(buf)
			if seen.Add(int64(n)) >= 128<<10 && once.CompareAndSwap(false, true) {
				close(gotEnough)
			}
			if err != nil {
				return err
			}
		}
	})

	// A passthrough route: no lanes, raw chunk relay.
	cfg := &Config{
		Upstream: up.Addr(),
		Routes:   []RouteConfig{{Key: "svc", Op: 7}},
	}
	const poolSize = 2
	g, srv := startGateway(t, cfg, Options{
		StreamThreshold: 4 << 10,
		Upstream:        resil.Options{PoolSize: poolSize, CallTimeout: 30 * time.Second},
	})

	baseline := runtime.NumGoroutine()

	c := dialOrb(t, srv.Addr())
	sc, err := c.OpenStream(context.Background(), "svc", 7)
	if err != nil {
		t.Fatal(err)
	}

	// Writer leg: push chunks until the relay fails; the kill happens
	// once the upstream has consumed 128 KiB.
	werrCh := make(chan error, 1)
	go func() {
		chunk := bytes.Repeat([]byte{0x5a}, 32<<10)
		for {
			if _, err := sc.Write(chunk); err != nil {
				werrCh <- err
				return
			}
		}
	}()
	go func() {
		<-gotEnough
		_ = up.Close()
	}()

	readDone := make(chan error, 1)
	go func() {
		_, err := io.ReadAll(sc)
		readDone <- err
	}()
	var rerr error
	select {
	case rerr = <-readDone:
	case <-time.After(30 * time.Second):
		t.Fatal("mid-stream upstream death hung the relay")
	}
	var werr error
	select {
	case werr = <-werrCh:
	case <-time.After(30 * time.Second):
		t.Fatal("write leg never observed the mid-stream failure")
	}
	_ = sc.Close()
	if rerr == nil && werr == nil {
		t.Fatal("stream succeeded although the upstream died mid-relay")
	}
	err = rerr
	if err == nil {
		err = werr
	}
	var re *orb.RemoteError
	if !errors.As(err, &re) && !errors.Is(err, orb.ErrConnClosed) {
		t.Fatalf("mid-stream error = %v (%T), want a typed remote or conn error", err, err)
	}

	// No goroutine leak: the relay's reply-drain goroutine and both
	// stream queues must unwind once the call fails.
	testutil.Eventually(t, fmt.Sprintf("goroutines back to the baseline %d", baseline), func() bool {
		return runtime.NumGoroutine() <= baseline+3
	})
	// No pooled-connection leak past the bound.
	if u := g.Stats().Upstreams[0]; u.Conns > poolSize {
		t.Errorf("upstream pool holds %d conns, bound %d", u.Conns, poolSize)
	}
	if r := g.Stats().Routes[0]; r.Streamed != 1 {
		t.Errorf("streamed = %d, want 1", r.Streamed)
	}
}
