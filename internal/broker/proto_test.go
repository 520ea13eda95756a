package broker

import (
	"bytes"
	"context"
	"errors"
	"fmt"
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
	} else if !errors.Is(err, orb.ErrUnavailable) || !strings.Contains(err.Error(), `core: no universe "nope"`) {
		t.Fatalf("error %v, want ErrUnavailable naming the universe", err)
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

// permutedPair is a C struct pair of the given width whose field names
// differ and whose kinds cycle int, float, short, double: structurally
// equivalent, so the verdict caches and every convert fuses.
func permutedPair(fields int) (a, b string) {
	var sa, sb strings.Builder
	kinds := []string{"int", "float", "short", "double"}
	sa.WriteString("typedef struct {\n")
	sb.WriteString("typedef struct {\n")
	for i := range fields {
		fmt.Fprintf(&sa, "  %s f%d;\n", kinds[i%len(kinds)], i)
		fmt.Fprintf(&sb, "  %s g%d;\n", kinds[i%len(kinds)], i)
	}
	sa.WriteString("} big;\n")
	sb.WriteString("} big;\n")
	return sa.String(), sb.String()
}

// TestConcurrentRawOps drives the three raw protocol ops — compare,
// convert and a batch convert of four — from sixteen protocol clients,
// each on its own orb connection, over the 64-field permuted pair. Each
// client makes sixty calls, twenty of each op. Every reply must equal the
// one a single caller got for the same request before any concurrency,
// and every convert must stay on the fast tier.
func TestConcurrentRawOps(t *testing.T) {
	const callers, calls, batch, fields = 16, 60, 4, 64
	b := newBroker(Options{})
	srv, err := orb.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	Serve(srv, b)
	dial := func() *Client {
		c, err := DialClient(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	ref := dial()
	srcA, srcB := permutedPair(fields)
	for u, src := range map[string]string{"a": srcA, "b": srcB} {
		if _, _, err := ref.Load(u, "c", "ilp32", src, ""); err != nil {
			t.Fatal(err)
		}
	}
	mtA, err := b.Mtype("a", "big")
	if err != nil {
		t.Fatal(err)
	}
	mtB, err := b.Mtype("b", "big")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := ref.CompareContext(ctx, "a", "big", "b", "big"); err != nil {
		t.Fatal(err)
	}
	verdict, err := ref.CompareContext(ctx, "a", "big", "b", "big")
	if err != nil || verdict.Relation != core.RelEquivalent || !verdict.Cached {
		t.Fatalf("warm verdict = %+v, %v; want a cached equivalence", verdict, err)
	}

	// Each caller's payloads, and what one call returned for them.
	payloads, converted := make([][]byte, callers), make([][]byte, callers)
	batches, batched := make([][][]byte, callers), make([][][]byte, callers)
	for w := range callers {
		vs := make([]value.Value, fields)
		for i := range vs {
			if i%2 == 0 {
				vs[i] = value.NewInt(int64((w*fields + i) % 100))
			} else {
				vs[i] = value.Real{V: float64(w*fields+i) + 0.25}
			}
		}
		in := value.NewRecord(vs...)
		if payloads[w], err = wire.Marshal(mtA, in); err != nil {
			t.Fatal(err)
		}
		if converted[w], err = ref.ConvertRawContext(ctx, "a", "big", "b", "big", payloads[w]); err != nil {
			t.Fatal(err)
		}
		out, err := b.Convert("a", "big", "b", "big", in)
		if err != nil {
			t.Fatal(err)
		}
		if want, err := wire.Marshal(mtB, out); err != nil || !bytes.Equal(converted[w], want) {
			t.Fatalf("caller %d: convert returned % x, in-process conversion % x (%v)", w, converted[w], want, err)
		}
	}
	for w := range callers {
		for i := range batch {
			batches[w] = append(batches[w], payloads[(w+i)%callers])
		}
		if batched[w], err = ref.ConvertBatchRawContext(ctx, "a", "big", "b", "big", batches[w]); err != nil {
			t.Fatal(err)
		}
		for i, out := range batched[w] {
			if want := converted[(w+i)%callers]; !bytes.Equal(out, want) {
				t.Fatalf("caller %d: batch item %d % x, single convert % x", w, i, out, want)
			}
		}
	}

	// One subtest per op, run in parallel over the same sixteen clients,
	// so each client carries all three ops at once. The counters are
	// checked once every subtest is done.
	clients := make([]*Client, callers)
	for w := range clients {
		clients[w] = dial()
	}
	ops := []struct {
		name string
		call func(c *Client, w int) error
	}{
		{"compare", func(c *Client, w int) error {
			v, err := c.CompareContext(ctx, "a", "big", "b", "big")
			if err == nil && v != verdict {
				err = fmt.Errorf("verdict %+v, want %+v", v, verdict)
			}
			return err
		}},
		{"convert", func(c *Client, w int) error {
			out, err := c.ConvertRawContext(ctx, "a", "big", "b", "big", payloads[w])
			if err == nil && !bytes.Equal(out, converted[w]) {
				err = fmt.Errorf("convert % x, want % x", out, converted[w])
			}
			return err
		}},
		{"batch", func(c *Client, w int) error {
			outs, err := c.ConvertBatchRawContext(ctx, "a", "big", "b", "big", batches[w])
			if err == nil && !bytes.Equal(bytes.Join(outs, nil), bytes.Join(batched[w], nil)) {
				err = fmt.Errorf("batch % x, want % x", outs, batched[w])
			}
			return err
		}},
	}
	t.Cleanup(func() {
		if t.Failed() {
			return
		}
		perCaller := int64(calls/len(ops) + calls/len(ops)*batch)
		if st, want := b.Stats(), callers*(1+batch+perCaller); st.FastConverts != want || st.TreeConverts != 0 {
			t.Errorf("fast converts %d, tree %d; want %d, 0", st.FastConverts, st.TreeConverts, want)
		}
	})
	for _, op := range ops {
		t.Run(op.name, func(t *testing.T) {
			t.Parallel()
			errs := make(chan error, callers)
			for w, c := range clients {
				go func() {
					for i := range calls / len(ops) {
						if err := op.call(c, w); err != nil {
							errs <- fmt.Errorf("caller %d call %d: %w", w, i, err)
							return
						}
					}
					errs <- nil
				}()
			}
			for range callers {
				if err := <-errs; err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}
