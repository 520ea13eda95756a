package broker

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/orb"
	"repro/internal/resil"
	"repro/internal/testutil"
	"repro/internal/value"
	"repro/internal/wire"
)

// startDaemonOpts serves a broker built with opts on a loopback orb
// server and returns it alongside a connected protocol client.
func startDaemonOpts(t *testing.T, opts Options) (*Broker, *Client) {
	t.Helper()
	b := newBroker(opts)
	srv, err := orb.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	Serve(srv, b)
	c, err := DialClient(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return b, c
}

// startDaemon is startDaemonOpts with defaults.
func startDaemon(t *testing.T) (*Broker, *Client) {
	t.Helper()
	return startDaemonOpts(t, Options{})
}

func TestProtocolRoundTrip(t *testing.T) {
	b, c := startDaemon(t)

	names, existed, err := c.Load("x", "c", "ilp32",
		"typedef struct { float r; int n; } mix;\ntypedef struct { float *p; } holder;", "")
	if err != nil || existed {
		t.Fatalf("load: names=%v existed=%v err=%v", names, existed, err)
	}
	if len(names) != 2 || names[0] != "holder" || names[1] != "mix" {
		t.Fatalf("names = %v", names)
	}
	// Idempotent reload.
	if _, existed, err = c.Load("x", "c", "ilp32", "ignored", ""); err != nil || !existed {
		t.Fatalf("reload: existed=%v err=%v", existed, err)
	}
	if _, _, err := c.Load("y", "c", "ilp32", "typedef struct { int count; float ratio; } pair;", ""); err != nil {
		t.Fatal(err)
	}

	// Op 2 was the remote annotate op; its number stays reserved.
	if _, err := c.t.InvokeContext(context.Background(), ObjectKey, 2, nil); err == nil || !strings.Contains(err.Error(), "unknown op 2") {
		t.Fatalf("op 2: err = %v, want unknown op", err)
	}

	v, err := c.CompareContext(context.Background(), "x", "mix", "y", "pair")
	if err != nil {
		t.Fatal(err)
	}
	if v.Relation != core.RelEquivalent || v.Cached {
		t.Fatalf("verdict = %+v", v)
	}
	if v, err = c.CompareContext(context.Background(), "x", "mix", "y", "pair"); err != nil || !v.Cached {
		t.Fatalf("warm verdict = %+v err=%v", v, err)
	}

	text, err := c.PlanContext(context.Background(), "x", "mix", "y", "pair")
	if err != nil || !strings.Contains(text, "plan(") {
		t.Fatalf("plan = %q err=%v", text, err)
	}

	// Convert through the daemon with client-side CDR marshaling.
	mtA, err := b.Mtype("x", "mix")
	if err != nil {
		t.Fatal(err)
	}
	mtB, err := b.Mtype("y", "pair")
	if err != nil {
		t.Fatal(err)
	}
	in := value.NewRecord(value.Real{V: 4.5}, value.NewInt(9))
	out, err := c.ConvertContext(context.Background(), "x", "mix", "y", "pair", mtA, mtB, in)
	if err != nil {
		t.Fatal(err)
	}
	rec := out.(value.Record)
	if n, _ := rec.Fields[0].(value.Int).Int64(); n != 9 {
		t.Fatalf("converted = %v", out)
	}
	if rec.Fields[1].(value.Real).V != 4.5 {
		t.Fatalf("converted = %v", out)
	}

	st, err := c.StatsContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.CompareRuns != 1 || st.Compiles != 1 {
		t.Errorf("stats: runs=%d compiles=%d, want 1/1", st.CompareRuns, st.Compiles)
	}
	if st.CompareHits < 1 {
		t.Errorf("stats: hits=%d, want ≥1", st.CompareHits)
	}
}

func TestProtocolErrors(t *testing.T) {
	b, c := startDaemon(t)
	if _, err := c.CompareContext(context.Background(), "nope", "a", "nope", "b"); err == nil {
		t.Fatal("compare of unknown universe succeeded")
	} else if _, ok := err.(*orb.RemoteError); !ok {
		t.Fatalf("error %T, want RemoteError", err)
	}
	if _, _, err := c.Load("u", "cobol", "", "x", ""); err == nil ||
		!strings.Contains(err.Error(), "unknown language") {
		t.Fatalf("load error = %v", err)
	}
	// Mismatched pair: convert reports the diagnosis remotely.
	if _, _, err := c.Load("u", "c", "ilp32", "typedef struct { float a; } fa;\ntypedef struct { char c; } cc;", ""); err != nil {
		t.Fatal(err)
	}
	mtFa, err := b.Mtype("u", "fa")
	if err != nil {
		t.Fatal(err)
	}
	payload, err := wire.Marshal(mtFa, value.NewRecord(value.Real{V: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.ConvertRawContext(context.Background(), "u", "fa", "u", "cc", payload); err == nil ||
		!strings.Contains(err.Error(), "do not match") {
		t.Fatalf("convert error = %v", err)
	}
}

func TestRequestTimeout(t *testing.T) {
	// The wire call fails promptly with a remote deadline error, while
	// the session work completes in the background and warms the broker's
	// state. The session lock is held across the call so the work cannot
	// finish first: a 1 ns timer alone loses the select to a fast load
	// about once in fifteen runs under the race detector.
	b, c := startDaemonOpts(t, Options{RequestTimeout: time.Nanosecond})
	b.sessMu.Lock()
	_, _, err := c.Load("x", "c", "ilp32", "typedef struct { int n; } one;", "")
	b.sessMu.Unlock()
	if err == nil {
		t.Fatal("load beat a 1ns server deadline")
	}
	if _, ok := err.(*orb.RemoteError); !ok {
		t.Fatalf("error %T = %v, want RemoteError", err, err)
	}
	if !strings.Contains(err.Error(), "deadline") {
		t.Fatalf("error = %v, want a server deadline message", err)
	}
	if n := b.Stats().DeadlineExceeded; n < 1 {
		t.Errorf("DeadlineExceeded = %d, want ≥ 1", n)
	}
	// Background completion: the universe materializes despite the
	// client-visible failure.
	testutil.Eventually(t, "the timed-out load to complete in the background", func() bool {
		_, err := b.Mtype("x", "one")
		return err == nil
	})
}

func TestResilTransportRoundTrip(t *testing.T) {
	// The protocol client runs over the resil pooled transport instead of
	// a bare orb connection.
	b := newBroker(Options{})
	srv, err := orb.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	Serve(srv, b)
	pool := resil.New(srv.Addr(), resil.Options{})
	c := NewTransportClient(pool)
	t.Cleanup(func() { c.Close() })

	if _, _, err := c.Load("x", "c", "ilp32", "typedef struct { float r; int n; } mix;", ""); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Load("y", "c", "ilp32", "typedef struct { int count; float ratio; } pair;", ""); err != nil {
		t.Fatal(err)
	}
	v, err := c.CompareContext(context.Background(), "x", "mix", "y", "pair")
	if err != nil {
		t.Fatal(err)
	}
	if v.Relation != core.RelEquivalent {
		t.Fatalf("verdict = %+v", v)
	}
	st, err := c.StatsContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.CompareRuns != 1 {
		t.Errorf("CompareRuns = %d, want 1", st.CompareRuns)
	}

	// The same pool carries a streamed convert: one more call, of the
	// stream kind, with the connection handed back when it ends.
	mt, err := b.Mtype("x", "mix")
	if err != nil {
		t.Fatal(err)
	}
	payload, err := wire.Marshal(mt, value.NewRecord(value.Real{V: 4.5}, value.NewInt(9)))
	if err != nil {
		t.Fatal(err)
	}
	want, err := b.ConvertRaw("x", "mix", "y", "pair", payload)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if _, err := c.ConvertStreamContext(context.Background(), "x", "mix", "y", "pair", bytes.NewReader(payload), &out); err != nil || !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("streamed convert over the pool = %x, %v, want %x", out.Bytes(), err, want)
	}
	if st := pool.Stats(); st.Dials != 1 || st.Conns != 1 {
		t.Errorf("pool stats = %+v, want the one connection back in the pool", st)
	}
}
