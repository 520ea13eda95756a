package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/broker"
	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/orb"
	"repro/internal/resil"
	"repro/internal/testutil"
	"repro/internal/value"
)

// bigStruct renders a C struct with n fields of rotating scalar types.
// Field names carry the given prefix so the two universes' sources differ
// textually while lowering to the same Mtype shape.
func bigStruct(name, prefix string, n int) string {
	var sb strings.Builder
	sb.WriteString("typedef struct {\n")
	kinds := []string{"int", "float", "short", "double"}
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "  %s %s%d;\n", kinds[i%len(kinds)], prefix, i)
	}
	fmt.Fprintf(&sb, "} %s;\n", name)
	return sb.String()
}

// The end-to-end acceptance test: an in-process daemon on a real TCP
// socket, 32 concurrent clients comparing and converting, then the cache
// accounting and cold/warm latency checks.
func TestDaemonEndToEnd(t *testing.T) {
	srv, b, _, err := start(config{addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const nClients = 32
	srcA := "typedef struct { float r; int n; } mix;\n" +
		"typedef struct { int a; struct { float x; char c; } inner; } outerA;\n" +
		bigStruct("bigA", "f", 1500)
	srcB := "typedef struct { int count; float ratio; } pair;\n" +
		"typedef struct { struct { float u; char v; } nested; int num; } outerB;\n" +
		bigStruct("bigB", "g", 1500)

	// One seed client loads both universes and times the cold compare of
	// the 1500-field pair (lowering + full structural comparison).
	seed, err := broker.DialClient(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer seed.Close()
	if _, existed, err := seed.Load("a", "c", "ilp32", srcA, ""); err != nil || existed {
		t.Fatalf("load a: existed=%v err=%v", existed, err)
	}
	if _, _, err := seed.Load("b", "c", "ilp32", srcB, ""); err != nil {
		t.Fatal(err)
	}
	coldStart := time.Now()
	v, err := seed.CompareContext(context.Background(), "a", "bigA", "b", "bigB")
	cold := time.Since(coldStart)
	if err != nil || v.Relation != core.RelEquivalent || v.Cached {
		t.Fatalf("cold big compare = %+v err=%v", v, err)
	}

	// Mtypes for client-side CDR marshaling, shared read-only.
	mtMix, err := b.Mtype("a", "mix")
	if err != nil {
		t.Fatal(err)
	}
	mtPair, err := b.Mtype("b", "pair")
	if err != nil {
		t.Fatal(err)
	}
	mtOuterA, err := b.Mtype("a", "outerA")
	if err != nil {
		t.Fatal(err)
	}
	mtOuterB, err := b.Mtype("b", "outerB")
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, nClients)
	for i := 0; i < nClients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fail := func(format string, args ...any) {
				errs <- fmt.Errorf("client %d: "+format, append([]any{i}, args...)...)
			}
			c, err := broker.DialClient(srv.Addr())
			if err != nil {
				fail("dial: %v", err)
				return
			}
			defer c.Close()
			// Loads race with every other client; the universe name is
			// the identity, so all but the first are no-ops.
			if _, _, err := c.Load("a", "c", "ilp32", srcA, ""); err != nil {
				fail("load: %v", err)
				return
			}
			if _, _, err := c.Load("b", "c", "ilp32", srcB, ""); err != nil {
				fail("load: %v", err)
				return
			}
			if v, err := c.CompareContext(context.Background(), "a", "bigA", "b", "bigB"); err != nil || v.Relation != core.RelEquivalent {
				fail("big compare = %+v err=%v", v, err)
				return
			}
			if v, err := c.CompareContext(context.Background(), "a", "mix", "b", "pair"); err != nil || v.Relation != core.RelEquivalent {
				fail("mix/pair = %+v err=%v", v, err)
				return
			}
			if v, err := c.CompareContext(context.Background(), "a", "outerA", "b", "outerB"); err != nil || v.Relation != core.RelEquivalent {
				fail("outer = %+v err=%v", v, err)
				return
			}
			in := value.NewRecord(value.Real{V: 0.5 + float64(i)}, value.NewInt(int64(i)))
			out, err := c.ConvertContext(context.Background(), "a", "mix", "b", "pair", mtMix, mtPair, in)
			if err != nil {
				fail("convert: %v", err)
				return
			}
			rec, ok := out.(value.Record)
			if !ok || len(rec.Fields) != 2 {
				fail("convert out = %v", out)
				return
			}
			if n, _ := rec.Fields[0].(value.Int).Int64(); n != int64(i) {
				fail("crossed int = %v", rec.Fields[0])
				return
			}
			if r := rec.Fields[1].(value.Real).V; r != 0.5+float64(i) {
				fail("crossed real = %v", rec.Fields[1])
				return
			}
			nested := value.NewRecord(value.NewInt(int64(i)),
				value.NewRecord(value.Real{V: 1.25}, value.Char{R: 'q'}))
			out, err = c.ConvertContext(context.Background(), "a", "outerA", "b", "outerB", mtOuterA, mtOuterB, nested)
			if err != nil {
				fail("nested convert: %v", err)
				return
			}
			want := value.NewRecord(
				value.NewRecord(value.Real{V: 1.25}, value.Char{R: 'q'}),
				value.NewInt(int64(i)))
			if !value.Equal(out, want) {
				fail("nested out = %v, want %v", out, want)
				return
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	// Cache accounting over the whole run: three distinct canonical pairs
	// were compared (big, mix/pair, outerA/outerB) and two distinct exact
	// pairs were converted — exactly one comparison run and one transcoder
	// compile each, no matter how many clients raced (singleflight). Both
	// pairs are fusible records, so every conversion rode the wire fast
	// path and no tree converter was ever compiled.
	st, err := seed.StatsContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.CompareRuns != 3 {
		t.Errorf("CompareRuns = %d, want 3", st.CompareRuns)
	}
	if st.XcodeCompiles != 2 {
		t.Errorf("XcodeCompiles = %d, want 2", st.XcodeCompiles)
	}
	if st.Compiles != 0 {
		t.Errorf("Compiles = %d, want 0 (fast path should bypass tree converters)", st.Compiles)
	}
	if want := int64(2 * nClients); st.FastConverts != want || st.TreeConverts != 0 {
		t.Errorf("FastConverts = %d TreeConverts = %d, want %d/0", st.FastConverts, st.TreeConverts, want)
	}
	// 1 seed compare + 3 compares per client reached the verdict cache.
	wantLookups := int64(1 + 3*nClients)
	if got := st.CompareHits + st.CompareMisses + st.CompareCoalesced; got != wantLookups {
		t.Errorf("compare lookups = %d (h=%d m=%d c=%d), want %d",
			got, st.CompareHits, st.CompareMisses, st.CompareCoalesced, wantLookups)
	}
	if st.InFlight != 0 {
		t.Errorf("InFlight = %d after quiesce", st.InFlight)
	}

	// Warm-cache compare must be measurably faster than the cold one: the
	// cold path lowered and structurally compared two 1500-field records,
	// the warm path is a fingerprint lookup plus one round trip.
	warms := make([]time.Duration, 0, 9)
	for k := 0; k < 9; k++ {
		start := time.Now()
		v, err := seed.CompareContext(context.Background(), "a", "bigA", "b", "bigB")
		warms = append(warms, time.Since(start))
		if err != nil || !v.Cached || v.Relation != core.RelEquivalent {
			t.Fatalf("warm big compare = %+v err=%v", v, err)
		}
	}
	sort.Slice(warms, func(i, j int) bool { return warms[i] < warms[j] })
	warm := warms[len(warms)/2]
	t.Logf("cold=%v warm(median)=%v", cold, warm)
	if warm >= cold {
		t.Errorf("warm compare %v not faster than cold %v", warm, cold)
	}
}

// TestChaosDaemonResilience drives a real daemon through the chaos proxy
// with the resil client: a degraded-but-working network first, then a
// black-holed one (fail fast on the client's deadline), then a healed one
// (transparent re-dial, warm caches answer instantly).
func TestChaosDaemonResilience(t *testing.T) {
	srv, _, _, err := start(config{addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	p, err := chaos.New("127.0.0.1:0", srv.Addr(), chaos.Faults{
		Latency:   2 * time.Millisecond,
		Jitter:    time.Millisecond,
		ChunkSize: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	rc := resil.New(p.Addr(), resil.Options{
		PoolSize:    2,
		MaxAttempts: 3,
		CallTimeout: 10 * time.Second,
	})
	c := broker.NewTransportClient(rc)
	defer c.Close()

	// Phase 1: slow, chunked network — everything still works.
	if _, _, err := c.Load("a", "c", "ilp32", "typedef struct { float r; int n; } mix;", ""); err != nil {
		t.Fatalf("load through degraded network: %v", err)
	}
	if _, _, err := c.Load("b", "c", "ilp32", "typedef struct { int count; float ratio; } pair;", ""); err != nil {
		t.Fatal(err)
	}
	v, err := c.CompareContext(context.Background(), "a", "mix", "b", "pair")
	if err != nil || v.Relation != core.RelEquivalent {
		t.Fatalf("compare through degraded network = %+v err=%v", v, err)
	}

	// Phase 2: the network black-holes. The budget is long spent on the
	// pooled connections, so the next call hangs at the proxy; the
	// client-side deadline must cut it loose with a typed error.
	p.SetFaults(chaos.Faults{BlackholeAfter: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	start := time.Now()
	_, err = c.CompareContext(ctx, "a", "mix", "b", "pair")
	cancel()
	if !errors.Is(err, orb.ErrDeadline) {
		t.Fatalf("black-holed compare err = %v, want ErrDeadline", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("black-holed compare took %v, want fail-fast near 300ms", elapsed)
	}

	// Phase 3: the network heals. The condemned connection is replaced by
	// a fresh dial through the healed proxy and the cached verdict comes
	// straight back.
	p.SetFaults(chaos.Faults{})
	v, err = c.CompareContext(context.Background(), "a", "mix", "b", "pair")
	if err != nil || v.Relation != core.RelEquivalent || !v.Cached {
		t.Fatalf("post-heal compare = %+v err=%v", v, err)
	}
	st := rc.Stats()
	if st.Dials < 2 {
		t.Errorf("resil stats = %+v, want a re-dial after the heal", st)
	}
}

// reservePort grabs an ephemeral port and frees it so start() can bind
// it — including a second time, after a simulated restart.
func reservePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	_ = ln.Close()
	return addr
}

// TestClusterServeWarmSync boots a 3-daemon fleet through the real
// start() path (-cluster flags), warms it with client traffic, restarts
// one daemon, and checks the restart warm-synced from its peers before
// taking traffic — the rolling-restart contract: the restarted member
// answers the compare without running one.
func TestClusterServeWarmSync(t *testing.T) {
	members := []string{reservePort(t), reservePort(t), reservePort(t)}
	list := strings.Join(members, ",")

	type daemon struct {
		srv *orb.Server
		b   *broker.Broker
		n   *cluster.Node
	}
	start := func(i int) *daemon {
		srv, b, n, err := start(config{
			addr: members[i], cluster: list, warm: true, warmTimeout: 10 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		if n == nil {
			t.Fatal("cluster config did not produce a cluster node")
		}
		return &daemon{srv: srv, b: b, n: n}
	}
	stop := func(d *daemon) {
		_ = d.srv.Close()
		_ = d.n.Close()
	}
	daemons := make([]*daemon, len(members))
	for i := range members {
		daemons[i] = start(i)
	}
	t.Cleanup(func() {
		for _, d := range daemons {
			stop(d)
		}
	})

	// Every member loads the pair; one member compares it.
	dial := func(i int) *broker.Client {
		c, err := broker.DialClient(members[i])
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = c.Close() })
		return c
	}
	for i := range members {
		c := dial(i)
		if _, _, err := c.Load("ux", "c", "ilp32", "typedef struct { float r; int n; } mix;", ""); err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.Load("uy", "c", "ilp32", "typedef struct { int count; float ratio; } pair;", ""); err != nil {
			t.Fatal(err)
		}
	}
	if v, err := dial(0).CompareContext(context.Background(), "ux", "mix", "uy", "pair"); err != nil || v.Relation != core.RelEquivalent {
		t.Fatalf("compare = %+v err=%v", v, err)
	}
	// Wait for the verdict to replicate so the restart victim's peers
	// can answer its warm sync regardless of which member compared.
	testutil.Eventually(t, "the verdict to replicate to a peer", func() bool {
		fills := int64(0)
		for _, d := range daemons {
			fills += d.b.Stats().WarmFills
		}
		return fills > 0
	})

	stop(daemons[1])
	daemons[1] = start(1)
	if daemons[1].n.Status().Synced == 0 {
		t.Fatal("restarted daemon synced nothing from its peers")
	}
	if daemons[1].b.Stats().WarmFills == 0 {
		t.Fatal("restarted daemon holds no warm fills")
	}
	if _, ok := daemons[1].b.PeekVerdict("ux", "mix", "uy", "pair"); !ok {
		t.Fatal("restarted daemon is missing the fleet's verdict")
	}
	// The restarted member answers, and without a fresh compare.
	runs := int64(0)
	for _, d := range daemons {
		runs += d.b.Stats().CompareRuns
	}
	if v, err := dial(1).CompareContext(context.Background(), "ux", "mix", "uy", "pair"); err != nil || v.Relation != core.RelEquivalent {
		t.Fatalf("post-restart compare = %+v err=%v", v, err)
	}
	after := int64(0)
	for _, d := range daemons {
		after += d.b.Stats().CompareRuns
	}
	if after != runs {
		t.Fatalf("post-restart compare re-ran %d comparisons, want 0", after-runs)
	}
}

// Bad cluster flags must fail start() with a clear error, not a
// half-started daemon.
func TestClusterServeConfigErrors(t *testing.T) {
	_, _, _, err := start(config{
		addr:        "127.0.0.1:0",
		cluster:     "127.0.0.1:7001,127.0.0.1:7002",
		clusterSelf: "127.0.0.1:9999", // not in the member list
	})
	if err == nil || !strings.Contains(err.Error(), "-cluster-self") {
		t.Fatalf("err = %v, want a -cluster-self validation error", err)
	}
}
