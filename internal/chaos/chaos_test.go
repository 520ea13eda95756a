package chaos

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

// echoServer accepts connections and echoes whatever it reads.
func echoServer(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() { _, _ = io.Copy(c, c); _ = c.Close() }()
		}
	}()
	return ln
}

func startProxy(t *testing.T, target string, f Faults) *Proxy {
	t.Helper()
	p, err := New("127.0.0.1:0", target, f)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = p.Close() })
	return p
}

func dialProxy(t *testing.T, p *Proxy) net.Conn {
	t.Helper()
	c, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

func TestChaosProxyForwards(t *testing.T) {
	ln := echoServer(t)
	p := startProxy(t, ln.Addr().String(), Faults{})
	c := dialProxy(t, p)
	msg := []byte("hello through the proxy")
	if _, err := c.Write(msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(c, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("echo = %q", got)
	}
	// The proxy counts a chunk after writing it, so the echo can arrive
	// before its count; Close waits the forwarding goroutines out.
	_ = p.Close()
	st := p.Stats()
	if st.Accepted != 1 || st.ForwardedBytes != int64(2*len(msg)) {
		t.Errorf("stats = %+v", st)
	}
}

func TestChaosProxyLatencyAndChunks(t *testing.T) {
	ln := echoServer(t)
	p := startProxy(t, ln.Addr().String(), Faults{Latency: 5 * time.Millisecond, Jitter: 2 * time.Millisecond, ChunkSize: 4})
	c := dialProxy(t, p)
	msg := []byte("twelve bytes")
	start := time.Now()
	if _, err := c.Write(msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(c, got); err != nil {
		t.Fatal(err)
	}
	// 12 bytes in 4-byte chunks = 3 sequential chunks on the request leg
	// plus at least one on the reply leg, ≥ 5ms each (the two legs
	// overlap once the echo starts flowing back).
	if elapsed := time.Since(start); elapsed < 20*time.Millisecond {
		t.Errorf("round trip %v, want ≥ 20ms of injected latency", elapsed)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("echo = %q", got)
	}
}

func TestChaosProxyReset(t *testing.T) {
	ln := echoServer(t)
	p := startProxy(t, ln.Addr().String(), Faults{ResetAfter: 8})
	c := dialProxy(t, p)
	if _, err := c.Write(make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	_ = c.SetReadDeadline(time.Now().Add(5 * time.Second))
	_, err := io.ReadAll(c)
	if err == nil {
		// A clean EOF is acceptable on platforms without RST
		// propagation, but the stream must not deliver the full echo.
		t.Log("read ended cleanly (no RST surfaced)")
	}
	if p.Stats().Resets != 1 {
		t.Errorf("resets = %d", p.Stats().Resets)
	}
}

// TestChaosProxyResetCountsPairOnce drives both legs of each pair past
// the shared budget — the request leg still holds 56 bytes when the echo
// leg reads the first 8 back — and requires one reset per connection.
func TestChaosProxyResetCountsPairOnce(t *testing.T) {
	ln := echoServer(t)
	p := startProxy(t, ln.Addr().String(), Faults{ResetAfter: 8})
	const conns = 40
	for i := 0; i < conns; i++ {
		c := dialProxy(t, p)
		if _, err := c.Write(make([]byte, 64)); err != nil {
			t.Fatal(err)
		}
		_ = c.SetReadDeadline(time.Now().Add(5 * time.Second))
		_, _ = io.ReadAll(c)
		_ = c.Close()
	}
	if got := p.Stats().Resets; got != conns {
		t.Errorf("resets = %d over %d connections, want one each", got, conns)
	}
}

func TestChaosProxyTruncate(t *testing.T) {
	ln := echoServer(t)
	p := startProxy(t, ln.Addr().String(), Faults{TruncateAfter: 10})
	c := dialProxy(t, p)
	if _, err := c.Write(make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	_ = c.SetReadDeadline(time.Now().Add(5 * time.Second))
	got, err := io.ReadAll(c)
	if err != nil && !errors.Is(err, io.EOF) {
		t.Logf("read error: %v", err)
	}
	// Budget is shared across directions: the 10-byte budget is consumed
	// by the request leg, so at most 10 bytes ever come back.
	if len(got) > 10 {
		t.Errorf("read %d bytes past the truncation budget", len(got))
	}
	if p.Stats().Truncations != 1 {
		t.Errorf("truncations = %d", p.Stats().Truncations)
	}
}

func TestChaosProxyBlackhole(t *testing.T) {
	ln := echoServer(t)
	p := startProxy(t, ln.Addr().String(), Faults{BlackholeAfter: 1})
	c := dialProxy(t, p)
	if _, err := c.Write(make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	// The connection stays open but no echo ever arrives — past the one
	// byte the budget lets through, whose echo may or may not beat the
	// deadline, so read until the timeout rather than expecting it first.
	_ = c.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	buf := make([]byte, 64)
	n, err := 0, error(nil)
	for err == nil {
		var m int
		m, err = c.Read(buf)
		n += m
	}
	var nerr net.Error
	if !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Fatalf("read = %d, %v; want timeout on a black-holed connection", n, err)
	}
	if n > 1 {
		t.Errorf("black hole leaked %d bytes", n)
	}
}

func TestChaosProxyStall(t *testing.T) {
	ln := echoServer(t)
	p := startProxy(t, ln.Addr().String(), Faults{StallAfter: 8, StallInterval: 20 * time.Millisecond})
	c := dialProxy(t, p)
	if _, err := c.Write(make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	// The first 8 bytes flow normally; everything after trickles at one
	// byte per interval over a connection that stays open — so the read
	// times out mid-stream instead of seeing EOF or a reset, and far
	// fewer than 64 bytes ever arrive.
	_ = c.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
	buf := make([]byte, 64)
	total := 0
	var readErr error
	for total < len(buf) {
		n, err := c.Read(buf[total:])
		total += n
		if err != nil {
			readErr = err
			break
		}
	}
	var nerr net.Error
	if !errors.As(readErr, &nerr) || !nerr.Timeout() {
		t.Fatalf("read ended with %v after %d bytes; want a timeout on a live, wedged connection", readErr, total)
	}
	if total == 0 {
		t.Error("stall delivered nothing; want a trickle")
	}
	if total >= 32 {
		t.Errorf("stall delivered %d of 64 bytes within 200ms; want a trickle", total)
	}
	if st := p.Stats(); st.Stalls < 1 {
		t.Errorf("stalls = %d, want ≥ 1", st.Stalls)
	}
}

func TestChaosProxyDropOnAccept(t *testing.T) {
	ln := echoServer(t)
	p := startProxy(t, ln.Addr().String(), Faults{DropOnAccept: true})
	// The RST can land before or after Dial returns; either way the
	// connection must be dead without any bytes flowing.
	c, err := net.Dial("tcp", p.Addr())
	if err == nil {
		t.Cleanup(func() { _ = c.Close() })
		_ = c.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := io.ReadAll(c); err == nil {
			t.Log("connection dropped with clean EOF")
		}
	}
	if p.Stats().Resets != 1 {
		t.Errorf("resets = %d", p.Stats().Resets)
	}
}

func TestChaosProxySetFaults(t *testing.T) {
	ln := echoServer(t)
	p := startProxy(t, ln.Addr().String(), Faults{BlackholeAfter: 1})
	c := dialProxy(t, p)
	if _, err := c.Write(make([]byte, 8)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	// Heal the proxy: budgets on the old connection are spent, but a
	// fresh connection sees the new (fault-free) config.
	p.SetFaults(Faults{})
	c2 := dialProxy(t, p)
	msg := []byte("recovered")
	if _, err := c2.Write(msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	_ = c2.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadFull(c2, got); err != nil {
		t.Fatalf("healed proxy read: %v", err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("echo = %q", got)
	}
}
