package gateway

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/mtype"
	"repro/internal/orb"
	"repro/internal/resil"
	"repro/internal/value"
	"repro/internal/wire"
)

// The GiB fixture: 64-byte records (4 longs and 4 doubles interleaved)
// whose fields permute between the endpoints, so every element costs a
// real 8-field shuffle, not a memcpy.
const (
	gibASrc = "struct Rec { long n; double x; long m; double y; long p; double z; long q; double w; };\ntypedef sequence<Rec> Batch;"
	gibBSrc = "struct Rec { double x; long n; double y; long m; double z; long p; double w; long q; };\ntypedef sequence<Rec> Batch;"
)

func gibADecl() DeclConfig { return DeclConfig{Lang: "idl", Source: gibASrc, Decl: "Batch"} }
func gibBDecl() DeclConfig { return DeclConfig{Lang: "idl", Source: gibBSrc, Decl: "Batch"} }

// gibTemplate marshals three identical records of the A shape and
// splits the payload into its 64-byte head (the u32 count plus the
// phase-shifted first element) and the repeating 64-byte element image,
// verifying the stride really is constant from the second element on.
func gibTemplate(t testing.TB, mtA *mtype.Type) (head, elem []byte) {
	t.Helper()
	rec := func() value.Value {
		return value.NewRecord(
			value.NewInt(7), value.Real{V: 1.5},
			value.NewInt(-9), value.Real{V: 2.25},
			value.NewInt(40), value.Real{V: -0.5},
			value.NewInt(1), value.Real{V: 8},
		)
	}
	payload, err := wire.Marshal(mtA, value.FromSlice([]value.Value{rec(), rec(), rec()}))
	if err != nil {
		t.Fatal(err)
	}
	if len(payload) != 3*64 {
		t.Fatalf("fixture payload = %d bytes, want 3*64", len(payload))
	}
	if !bytes.Equal(payload[64:128], payload[128:192]) {
		t.Fatal("element images differ; the 64-byte stride replication is invalid")
	}
	return payload[:64], payload[64:128]
}

// vmPeakKiB reads the process's peak resident set (VmHWM) in KiB.
func vmPeakKiB(t testing.TB) int64 {
	t.Helper()
	f, err := os.Open("/proc/self/status")
	if err != nil {
		t.Skipf("no /proc/self/status: %v", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			n, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			if err != nil {
				t.Fatalf("parse VmHWM from %q: %v", sc.Text(), err)
			}
			return n
		}
	}
	t.Fatal("no VmHWM in /proc/self/status")
	return 0
}

// TestStreamRelayGiB pushes a ~1 GiB CDR sequence through the gateway's
// streaming relay — client, gateway, and upstream all in this process,
// so the RSS ceiling covers every hop. Gated behind MBIRD_STREAM_1GIB=1
// because it moves 2 GiB over loopback.
//
//	MBIRD_STREAM_1GIB=1 go test -run TestStreamRelayGiB -v ./internal/gateway/
func TestStreamRelayGiB(t *testing.T) {
	if os.Getenv("MBIRD_STREAM_1GIB") == "" {
		t.Skip("set MBIRD_STREAM_1GIB=1 to run the 1 GiB relay")
	}

	// Upstream: drain the stream and ack with the byte total, the shape
	// this revision streams end to end (requests stream; replies buffer).
	up, err := orb.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = up.Close() })
	up.RegisterStream("svc", func(ctx context.Context, op uint32, in *orb.StreamReader, out *orb.StreamWriter) error {
		var total int64
		buf := make([]byte, 256<<10)
		for {
			n, err := in.Read(buf)
			total += int64(n)
			if err == io.EOF {
				var ack [8]byte
				binary.LittleEndian.PutUint64(ack[:], uint64(total))
				_, werr := out.Write(ack[:])
				return werr
			}
			if err != nil {
				return err
			}
		}
	})

	cfg := &Config{
		Upstream: up.Addr(),
		Routes: []RouteConfig{{
			Key: "svc", Op: 1,
			Request: &LaneConfig{From: gibADecl(), To: gibBDecl()},
		}},
	}
	_, srv := startGateway(t, cfg, Options{
		Upstream: resil.Options{CallTimeout: 10 * time.Minute},
	})

	mtA := lowerDecl(t, gibADecl())
	head, elem := gibTemplate(t, mtA)
	const elems = 1<<24 - 1 // wire.MaxListLen bounds the count
	payloadBytes := int64(elems) * 64
	// What the upstream will count: the B-side image, whose padding
	// phase shifts the total a few bytes off the A side's.
	bProbe, err := wire.Marshal(lowerDecl(t, gibBDecl()), value.FromSlice([]value.Value{
		value.NewRecord(
			value.Real{V: 1}, value.NewInt(1), value.Real{V: 2}, value.NewInt(2),
			value.Real{V: 3}, value.NewInt(3), value.Real{V: 4}, value.NewInt(4),
		),
	}))
	if err != nil {
		t.Fatal(err)
	}
	upstreamBytes := int64(len(bProbe)) + int64(elems-1)*64

	// One shuttle buffer of whole elements, reused for every write.
	const perBuf = 4096
	buf := bytes.Repeat(elem, perBuf)

	c := dialOrb(t, srv.Addr())
	runtime.GC()
	rssBefore := vmPeakKiB(t)

	start := time.Now()
	sc, err := c.OpenStream(context.Background(), "svc", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	binary.LittleEndian.PutUint32(head[:4], elems)
	if _, err := sc.Write(head); err != nil {
		t.Fatal(err)
	}
	for sent := 1; sent < elems; {
		n := perBuf
		if sent+n > elems {
			n = elems - sent
		}
		if _, err := sc.Write(buf[:n*64]); err != nil {
			t.Fatalf("after %d of %d elements: %v", sent, elems, err)
		}
		sent += n
	}
	if err := sc.CloseSend(); err != nil {
		t.Fatal(err)
	}
	ack, err := io.ReadAll(sc)
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	rssDelta := vmPeakKiB(t) - rssBefore

	if len(ack) != 8 {
		t.Fatalf("ack = %d bytes, want 8", len(ack))
	}
	if got := int64(binary.LittleEndian.Uint64(ack)); got != upstreamBytes {
		t.Fatalf("upstream consumed %d bytes, want %d", got, upstreamBytes)
	}
	mibPerS := float64(payloadBytes) / (1 << 20) / elapsed.Seconds()
	t.Logf("relayed %d bytes (%d elements) in %v: %.1f MiB/s, peak-RSS delta %d KiB",
		payloadBytes, elems, elapsed.Round(time.Millisecond), mibPerS, rssDelta)
	if rssDelta > 64<<10 {
		t.Errorf("peak-RSS delta %d KiB exceeds the 64 MiB ceiling", rssDelta)
	}
}

// BenchmarkStreamVsBuffered1MiB compares the streaming relay against
// the buffered relay on the same fused route and a 1 MiB echo payload —
// the streamed lane must stay within 2x of the buffered tier.
func BenchmarkStreamVsBuffered1MiB(b *testing.B) {
	up, err := orb.NewServer("127.0.0.1:0", orb.WithBufPooling())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = up.Close() })
	echo := func(ctx context.Context, op uint32, body []byte) ([]byte, error) { return body, nil }
	up.Register("svc", echo)
	up.RegisterStream("svc", func(ctx context.Context, op uint32, in *orb.StreamReader, out *orb.StreamWriter) error {
		buf := make([]byte, 256<<10)
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

	cfg := &Config{
		Upstream: up.Addr(),
		Routes: []RouteConfig{{
			Key: "svc", Op: 1,
			Request: &LaneConfig{From: gibADecl(), To: gibBDecl()},
		}},
	}
	g := New(Options{StreamThreshold: 64 << 10})
	b.Cleanup(func() { _ = g.Close() })
	if err := g.SetConfig(cfg); err != nil {
		b.Fatal(err)
	}
	srv, err := orb.NewServer("127.0.0.1:0", orb.WithBufPooling())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = srv.Close() })
	g.Serve(srv)

	mtA := lowerDecl(b, gibADecl())
	head, elem := gibTemplate(b, mtA)
	const elems = (1 << 20) / 64 // 1 MiB exactly
	payload := make([]byte, 0, elems*64)
	payload = append(payload, head...)
	for i := 1; i < elems; i++ {
		payload = append(payload, elem...)
	}
	binary.LittleEndian.PutUint32(payload[:4], elems)

	c, err := orb.Dial(srv.Addr(), orb.WithMaxBody(4<<20))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = c.Close() })

	// The echoed reply is the B-side image, whose padding phase shifts
	// its length slightly; one untimed call fixes the expectation.
	warm, err := c.Invoke("svc", 1, payload)
	if err != nil {
		b.Fatal(err)
	}
	wantReply := len(warm)

	b.Run("buffered", func(b *testing.B) {
		b.SetBytes(int64(len(payload)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			reply, err := c.Invoke("svc", 1, payload)
			if err != nil {
				b.Fatal(err)
			}
			if len(reply) != wantReply {
				b.Fatalf("reply = %d bytes, want %d", len(reply), wantReply)
			}
		}
	})
	b.Run("streamed", func(b *testing.B) {
		rbuf := make([]byte, 256<<10)
		b.SetBytes(int64(len(payload)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sc, err := c.OpenStream(context.Background(), "svc", 1)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := sc.Write(payload); err != nil {
				b.Fatal(err)
			}
			if err := sc.CloseSend(); err != nil {
				b.Fatal(err)
			}
			var got int
			for {
				n, err := sc.Read(rbuf)
				got += n
				if err == io.EOF {
					break
				}
				if err != nil {
					b.Fatal(err)
				}
			}
			if got != wantReply {
				b.Fatalf("reply = %d bytes, want %d", got, wantReply)
			}
			if err := sc.Close(); err != nil {
				b.Fatal(err)
			}
		}
	})
	if r := g.Stats().Routes[0]; r.Streamed == 0 {
		b.Fatal("streamed arm never took the streaming relay")
	}
}
