package gateway

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/convert"
	"repro/internal/core"
	"repro/internal/limits"
	"repro/internal/mtype"
	"repro/internal/orb"
	"repro/internal/resil"
	"repro/internal/testutil"
	"repro/internal/value"
	"repro/internal/wire"
)

// The fast-tier fixture: two C structs whose fields are permuted, so
// the pair is equivalent and the plan fuses into a wire transcoder.
const (
	mixSrc  = "typedef struct { float r; int n; } mix;"
	pairSrc = "typedef struct { int count; float ratio; } pair;"
)

func mixDecl() DeclConfig  { return DeclConfig{Lang: "c", Source: mixSrc, Decl: "mix"} }
func pairDecl() DeclConfig { return DeclConfig{Lang: "c", Source: pairSrc, Decl: "pair"} }

// lowerDecl lowers a DeclConfig in a throwaway session, for building
// oracle payloads in tests.
func lowerDecl(t testing.TB, d DeclConfig) *mtype.Type {
	t.Helper()
	g := New(Options{})
	mt, err := g.Lower(&d)
	if err != nil {
		t.Fatal(err)
	}
	return mt
}

// upstreamEcho starts an orb server exporting key, answering every op
// by validating the body against ty (the declaration the upstream
// expects) and echoing it back.
func upstreamEcho(t *testing.T, key string, ty *mtype.Type) *orb.Server {
	t.Helper()
	s := orbServer(t)
	s.Register(key, func(ctx context.Context, op uint32, body []byte) ([]byte, error) {
		if _, err := wire.Unmarshal(ty, body); err != nil {
			return nil, fmt.Errorf("upstream got bytes it cannot decode: %w", err)
		}
		return body, nil
	})
	return s
}

// startGateway builds a gateway over cfg, serves it on its own orb
// listener, and returns both.
func startGateway(t *testing.T, cfg *Config, opts Options) (*Gateway, *orb.Server) {
	t.Helper()
	g := New(opts)
	t.Cleanup(func() { _ = g.Close() })
	if err := g.SetConfig(cfg); err != nil {
		t.Fatal(err)
	}
	srv := orbServer(t)
	g.Serve(srv)
	return g, srv
}

// orbServer starts an orb server on a loopback port, closed with the test.
func orbServer(t *testing.T) *orb.Server {
	t.Helper()
	s, err := orb.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
}

func dialOrb(t *testing.T, addr string) *orb.Client {
	t.Helper()
	c, err := orb.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

// oracle computes the reference bytes for one lane: decode src, convert
// through a fresh session's tree converter, encode dst.
func oracle(t *testing.T, from, to DeclConfig, payload []byte) []byte {
	t.Helper()
	g := New(Options{})
	mtF, err := g.Lower(&from)
	if err != nil {
		t.Fatal(err)
	}
	mtT, err := g.Lower(&to)
	if err != nil {
		t.Fatal(err)
	}
	v, err := g.sess.Compare(from.universe(), from.Decl, to.universe(), to.Decl)
	if err != nil {
		t.Fatal(err)
	}
	_, conv, err := g.sess.BuildConverter(v)
	if err != nil {
		t.Fatal(err)
	}
	out, err := convert.TranscodeTree(nil, mtF, mtT, conv, payload)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestEndToEndFastTier: a client marshalling declaration A (mix) calls
// through the gateway to an upstream expecting declaration B (pair).
// The request is transcoded A→B, the echoed reply B→A, and the bytes
// the client gets back match the tree-engine oracle exactly. Both lanes
// must be served by the fused fast tier.
func TestEndToEndFastTier(t *testing.T) {
	mtB := lowerDecl(t, pairDecl())
	up := upstreamEcho(t, "svc", mtB)

	cfg := &Config{
		Upstream: up.Addr(),
		Routes: []RouteConfig{{
			Name:    "mix-to-pair",
			Key:     "svc",
			Op:      7,
			Request: &LaneConfig{From: mixDecl(), To: pairDecl()},
			Reply:   &LaneConfig{From: pairDecl(), To: mixDecl()},
		}},
	}
	g, srv := startGateway(t, cfg, Options{})

	mtA := lowerDecl(t, mixDecl())
	in := value.NewRecord(value.Real{V: 1.5}, value.NewInt(7))
	payload, err := wire.Marshal(mtA, in)
	if err != nil {
		t.Fatal(err)
	}

	c := dialOrb(t, srv.Addr())
	got, err := c.Invoke("svc", 7, payload)
	if err != nil {
		t.Fatal(err)
	}

	// Oracle: A→B through the tree engine, then B→A back.
	fwd := oracle(t, mixDecl(), pairDecl(), payload)
	want := oracle(t, pairDecl(), mixDecl(), fwd)
	if !bytes.Equal(got, want) {
		t.Fatalf("gateway bytes % x, oracle % x", got, want)
	}

	st := g.Stats()
	if len(st.Routes) != 1 {
		t.Fatalf("routes = %d, want 1", len(st.Routes))
	}
	r := st.Routes[0]
	if r.Name != "mix-to-pair" || r.Requests != 1 {
		t.Errorf("route stats = %+v, want 1 request on mix-to-pair", r)
	}
	if r.FastTier != 2 || r.TreeTier != 0 {
		t.Errorf("fast=%d tree=%d, want both lanes on the fast tier (2/0)", r.FastTier, r.TreeTier)
	}
	if st.LaneCompiles != 2 {
		t.Errorf("LaneCompiles = %d, want 2 (one per direction)", st.LaneCompiles)
	}

	// The same snapshot must round-trip the admin protocol.
	ac := NewTransportClient(dialOrb(t, srv.Addr()))
	remote, err := ac.StatsContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(remote.Routes) != 1 || remote.Routes[0].FastTier != 2 {
		t.Errorf("admin stats = %+v, want fast=2", remote.Routes)
	}
	if len(remote.Upstreams) != 1 || remote.Upstreams[0].Dials < 1 {
		t.Errorf("admin upstream stats = %+v, want ≥ 1 dial", remote.Upstreams)
	}
	h, err := ac.HealthContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !h.Ready || h.Routes != 1 || h.Lanes != 2 {
		t.Errorf("health = %+v, want ready with 1 route / 2 lanes", h)
	}
}

// TestEndToEndTreeTier: a route whose request lane needs a semantic
// hook cannot be fused; the gateway must serve it through the tree
// engine and say so in the counters.
func TestEndToEndTreeTier(t *testing.T) {
	sess := core.NewSession()
	sess.RegisterSemantic("SlopeLine", "SegLine", "slope→seg", func(v value.Value) (value.Value, error) {
		rec, ok := v.(value.Record)
		if !ok || len(rec.Fields) != 2 {
			return nil, fmt.Errorf("want slope/intercept record, got %s", v)
		}
		m := rec.Fields[0].(value.Real).V
		c := rec.Fields[1].(value.Real).V
		pt := func(x float64) value.Value {
			return value.NewRecord(value.Real{V: x}, value.Real{V: m*x + c})
		}
		return value.NewRecord(pt(0), pt(1)), nil
	})

	slope := DeclConfig{Lang: "java", Source: "class SlopeLine { double slope; double intercept; }", Decl: "SlopeLine"}
	seg := DeclConfig{
		Lang: "java",
		Source: `class Pt { double x; double y; }
			class SegLine { Pt a; Pt b; }`,
		Script: "annotate SegLine.a nonnull noalias\nannotate SegLine.b nonnull noalias\n",
		Decl:   "SegLine",
	}

	segG := New(Options{})
	mtB, err := segG.Lower(&seg)
	if err != nil {
		t.Fatal(err)
	}
	up := upstreamEcho(t, "lines", mtB)

	cfg := &Config{
		Upstream: up.Addr(),
		Routes: []RouteConfig{{
			Key:     "lines",
			Op:      1,
			Request: &LaneConfig{From: slope, To: seg},
		}},
	}
	g, srv := startGateway(t, cfg, Options{session: sess})

	slopeG := New(Options{})
	mtA, err := slopeG.Lower(&slope)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := wire.Marshal(mtA, value.NewRecord(value.Real{V: 2}, value.Real{V: -1}))
	if err != nil {
		t.Fatal(err)
	}

	c := dialOrb(t, srv.Addr())
	got, err := c.Invoke("lines", 1, payload)
	if err != nil {
		t.Fatal(err)
	}
	// No reply lane: the client receives the upstream's SegLine bytes.
	v, err := wire.Unmarshal(mtB, got)
	if err != nil {
		t.Fatalf("reply is not a SegLine payload: %v", err)
	}
	seg2, ok := v.(value.Record)
	if !ok || len(seg2.Fields) != 2 {
		t.Fatalf("reply value = %s", v)
	}

	st := g.Stats()
	r := st.Routes[0]
	if r.TreeTier != 1 || r.FastTier != 0 {
		t.Errorf("tree=%d fast=%d, want the hooked lane on the tree tier (1/0)", r.TreeTier, r.FastTier)
	}
	if st.LaneUnsupported != 1 {
		t.Errorf("LaneUnsupported = %d, want 1", st.LaneUnsupported)
	}
}

// TestPassthroughRoute: a route with no lanes forwards bytes untouched
// and counts passthrough.
func TestPassthroughRoute(t *testing.T) {
	up := orbServer(t)
	up.Register("raw", func(ctx context.Context, op uint32, body []byte) ([]byte, error) { return body, nil })

	cfg := &Config{
		Upstream: up.Addr(),
		Routes:   []RouteConfig{{Key: "raw", Op: 0}},
	}
	g, srv := startGateway(t, cfg, Options{})

	c := dialOrb(t, srv.Addr())
	body := []byte{1, 2, 3, 4, 5}
	got, err := c.Invoke("raw", 0, body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, body) {
		t.Fatalf("passthrough reply = % x", got)
	}
	if p := g.Stats().Routes[0].Passthrough; p != 1 {
		t.Errorf("passthrough = %d, want 1", p)
	}
}

// TestConcurrentUnaryRoutes drives the three unary routes side by side
// on one gateway and one echo upstream: passthrough, fused request and
// reply lanes, and the SlopeLine→SegLine hook lane the tree tier serves.
// Sixteen callers, each on its own orb client with its own payloads, make
// sixty calls, twenty on each route; every reply must equal the bytes one
// call returned for that payload before any concurrency, and the route
// counters must add up to the calls made.
func TestConcurrentUnaryRoutes(t *testing.T) {
	const callers, calls = 16, 60
	up := orbServer(t)
	for _, key := range []string{"pass", "fused", "tree"} {
		up.Register(key, func(ctx context.Context, op uint32, body []byte) ([]byte, error) { return body, nil })
	}
	slope := DeclConfig{Lang: "java", Source: "class SlopeLine { double slope; double intercept; }", Decl: "SlopeLine"}
	seg := DeclConfig{
		Lang:   "java",
		Source: "class Pt { double x; double y; }\nclass SegLine { Pt a; Pt b; }",
		Script: "annotate SegLine.a nonnull noalias\nannotate SegLine.b nonnull noalias\n",
		Decl:   "SegLine",
	}
	cfg := &Config{Upstream: up.Addr(), Routes: []RouteConfig{
		{Name: "pass", Key: "pass", Op: 1},
		{Name: "fused", Key: "fused", Op: 1,
			Request: &LaneConfig{From: mixDecl(), To: pairDecl()},
			Reply:   &LaneConfig{From: pairDecl(), To: mixDecl()}},
		{Name: "tree", Key: "tree", Op: 1, Request: &LaneConfig{From: slope, To: seg}},
	}}
	g, srv := startGateway(t, cfg, Options{session: ladderSession()})
	routes := []string{"pass", "fused", "tree"}

	// Each caller's payload per route, and the reply one call returns.
	mtMix, mtSlope, mtSeg := lowerDecl(t, mixDecl()), lowerDecl(t, slope), lowerDecl(t, seg)
	ref := dialOrb(t, srv.Addr())
	payloads, wants := make([][3][]byte, callers), make([][3][]byte, callers)
	for w := range payloads {
		fused, err := wire.Marshal(mtMix, value.NewRecord(value.Real{V: float64(w) + 0.5}, value.NewInt(int64(w))))
		if err != nil {
			t.Fatal(err)
		}
		tree, err := wire.Marshal(mtSlope, value.NewRecord(value.Real{V: float64(w)}, value.Real{V: -1}))
		if err != nil {
			t.Fatal(err)
		}
		payloads[w] = [3][]byte{bytes.Repeat([]byte{byte(w)}, 5+w), fused, tree}
		for r, key := range routes {
			if wants[w][r], err = ref.Invoke(key, 1, payloads[w][r]); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(wants[w][0], payloads[w][0]) {
			t.Fatalf("caller %d: passthrough returned % x for % x", w, wants[w][0], payloads[w][0])
		}
		if want := oracle(t, pairDecl(), mixDecl(), oracle(t, mixDecl(), pairDecl(), fused)); !bytes.Equal(wants[w][1], want) {
			t.Fatalf("caller %d: fused lanes returned % x, oracle % x", w, wants[w][1], want)
		}
		line, err := wire.Unmarshal(mtSeg, wants[w][2])
		if err != nil {
			t.Fatalf("caller %d: hook lane reply is not a SegLine: %v", w, err)
		}
		if b := line.(value.Record).Fields[1].(value.Record).Fields[1].(value.Real).V; b != float64(w)-1 {
			t.Fatalf("caller %d: hook lane reply %s, want b.y = %d", w, line, w-1)
		}
	}

	// One subtest per route, run in parallel over the same sixteen
	// clients, so each client carries all three routes at once. The route
	// counters are checked once every subtest is done.
	clients := make([]*orb.Client, callers)
	for w := range clients {
		clients[w] = dialOrb(t, srv.Addr())
	}
	t.Cleanup(func() {
		if t.Failed() {
			return
		}
		per := int64(callers + callers*calls/len(routes))
		want := map[string]RouteStats{
			"pass":  {Name: "pass", Requests: per, Passthrough: per},
			"fused": {Name: "fused", Requests: per, FastTier: 2 * per},
			"tree":  {Name: "tree", Requests: per, TreeTier: per},
		}
		st := g.Stats()
		if len(st.Routes) != len(want) {
			t.Fatalf("%d routes in stats, want %d", len(st.Routes), len(want))
		}
		for _, r := range st.Routes {
			got := RouteStats{Name: r.Name, Requests: r.Requests, FastTier: r.FastTier, TreeTier: r.TreeTier, Passthrough: r.Passthrough}
			if got != want[r.Name] {
				t.Errorf("route counters %+v, want %+v", got, want[r.Name])
			}
		}
	})
	for r, route := range routes {
		t.Run(route, func(t *testing.T) {
			t.Parallel()
			errs := make(chan error, callers)
			for w, c := range clients {
				go func() {
					for i := range calls / len(routes) {
						got, err := c.Invoke(route, 1, payloads[w][r])
						if err == nil && !bytes.Equal(got, wants[w][r]) {
							err = fmt.Errorf("caller %d call %d on %s: reply % x, want % x", w, i, route, got, wants[w][r])
						}
						if err != nil {
							errs <- err
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

// TestRouteRewrite: upstream_key / upstream_op retarget the upstream
// leg while clients keep their own key and op.
func TestRouteRewrite(t *testing.T) {
	up := orbServer(t)
	up.Register("v2", func(ctx context.Context, op uint32, body []byte) ([]byte, error) {
		if op != 42 {
			return nil, fmt.Errorf("upstream saw op %d", op)
		}
		return []byte("ok"), nil
	})

	newOp := uint32(42)
	cfg := &Config{
		Upstream: up.Addr(),
		Routes: []RouteConfig{{
			Key: "v1", Op: 1, UpstreamKey: "v2", UpstreamOp: &newOp,
		}},
	}
	_, srv := startGateway(t, cfg, Options{})

	c := dialOrb(t, srv.Addr())
	got, err := c.Invoke("v1", 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "ok" {
		t.Fatalf("reply = %q", got)
	}
}

// TestHotReload: installing a new config retires routes whose keys are
// gone, adds new ones without dropping the client connection, reuses
// compiled lanes by fingerprint, and keeps counters for surviving
// routes.
func TestHotReload(t *testing.T) {
	mtB := lowerDecl(t, pairDecl())
	up := upstreamEcho(t, "svc", mtB)
	for _, k := range []string{"old", "new"} {
		up.Register(k, func(ctx context.Context, op uint32, body []byte) ([]byte, error) { return body, nil })
	}

	mkCfg := func(extraKey string) *Config {
		cfg := &Config{
			Upstream: up.Addr(),
			Routes: []RouteConfig{{
				Name:    "stable",
				Key:     "svc",
				Op:      1,
				Request: &LaneConfig{From: mixDecl(), To: pairDecl()},
			}},
		}
		if extraKey != "" {
			cfg.Routes = append(cfg.Routes, RouteConfig{Key: extraKey, Op: 2})
		}
		return cfg
	}

	g, srv := startGateway(t, mkCfg("old"), Options{})
	c := dialOrb(t, srv.Addr())

	mtA := lowerDecl(t, mixDecl())
	payload, err := wire.Marshal(mtA, value.NewRecord(value.Real{V: 3}, value.NewInt(9)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Invoke("svc", 1, payload); err != nil {
		t.Fatal(err)
	}

	compiles := g.Stats().LaneCompiles
	g.SetReloader(func() (*Config, error) { return mkCfg("new"), nil })
	ac := NewTransportClient(dialOrb(t, srv.Addr()))
	n, err := ac.ReloadContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("reload reported %d routes, want 2", n)
	}

	// Retired key answers with an error; the surviving route still works
	// on the same client connection, its counters intact, its lane
	// reused rather than recompiled.
	if _, err := c.Invoke("old", 2, nil); err == nil {
		t.Error("retired route still answers")
	}
	if _, err := c.Invoke("new", 2, nil); err != nil {
		t.Errorf("new route: %v", err)
	}
	if _, err := c.Invoke("svc", 1, payload); err != nil {
		t.Fatal(err)
	}
	st := g.Stats()
	for _, r := range st.Routes {
		if r.Name == "stable" && r.Requests != 2 {
			t.Errorf("stable route requests = %d after reload, want 2 (counters must survive)", r.Requests)
		}
	}
	if st.LaneCompiles != compiles {
		t.Errorf("reload recompiled lanes (%d → %d), want fingerprint reuse", compiles, st.LaneCompiles)
	}
	if st.LaneReuses < 1 {
		t.Errorf("LaneReuses = %d, want ≥ 1", st.LaneReuses)
	}
}

// TestReloadFailureKeepsTable: a config that fails to compile must
// leave the old table serving.
func TestReloadFailureKeepsTable(t *testing.T) {
	up := orbServer(t)
	up.Register("raw", func(ctx context.Context, op uint32, body []byte) ([]byte, error) { return body, nil })

	cfg := &Config{Upstream: up.Addr(), Routes: []RouteConfig{{Key: "raw", Op: 0}}}
	g, srv := startGateway(t, cfg, Options{})

	bad := &Config{
		Upstream: up.Addr(),
		Routes: []RouteConfig{{
			Key: "raw", Op: 0,
			// Incompatible pair: a float record vs a string-bearing one.
			Request: &LaneConfig{
				From: DeclConfig{Lang: "c", Source: "typedef struct { float x; } a;", Decl: "a"},
				To:   DeclConfig{Lang: "c", Source: "typedef struct { char *s; } b;", Decl: "b"},
			},
		}},
	}
	if err := g.SetConfig(bad); err == nil {
		t.Fatal("incompatible route compiled")
	}
	c := dialOrb(t, srv.Addr())
	if _, err := c.Invoke("raw", 0, []byte("x")); err != nil {
		t.Errorf("old table stopped serving after failed reload: %v", err)
	}
}

// TestBudgetAndAdmission: oversized payloads are refused with a typed
// budget error; a saturated gateway sheds with orb.ErrOverloaded.
func TestBudgetAndAdmission(t *testing.T) {
	release := make(chan struct{})
	up := orbServer(t)
	up.Register("slow", func(ctx context.Context, op uint32, body []byte) ([]byte, error) {
		<-release
		return body, nil
	})

	cfg := &Config{Upstream: up.Addr(), Routes: []RouteConfig{{Key: "slow", Op: 0}}}
	g, srv := startGateway(t, cfg, Options{
		MaxInFlight: 1,
		AdmitWait:   time.Millisecond,
		MaxPayload:  64,
	})

	c := dialOrb(t, srv.Addr())
	if _, err := c.Invoke("slow", 0, make([]byte, 65)); err == nil ||
		!strings.Contains(err.Error(), "exceeds") {
		t.Errorf("oversized payload: err = %v, want budget refusal", err)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c2, err := orb.Dial(srv.Addr())
		if err != nil {
			return
		}
		defer c2.Close()
		_, _ = c2.Invoke("slow", 0, nil) // parks in the upstream handler
	}()
	testutil.Eventually(t, "the first call to occupy the admission slot", func() bool { return g.Stats().InFlight > 0 })
	if _, err := c.Invoke("slow", 0, nil); !errors.Is(err, orb.ErrOverloaded) {
		t.Errorf("saturated gateway: err = %v, want ErrOverloaded", err)
	}
	if g.Stats().Sheds < 1 || g.Stats().Routes[0].Sheds < 1 {
		t.Error("shed not counted globally and per route")
	}
	close(release)
	wg.Wait()

	if r := g.Stats().Routes[0]; r.BudgetRejects < 1 {
		t.Errorf("BudgetRejects = %d, want ≥ 1", r.BudgetRejects)
	}
	if !errors.Is(limits.Exceededf("x"), limits.ErrBudget) {
		t.Fatal("sanity: Exceededf not typed")
	}
}

// TestAdmitUnbounded: negative MaxInFlight disables admission control,
// and health still counts what is in flight.
func TestAdmitUnbounded(t *testing.T) {
	release := make(chan struct{})
	up := orbServer(t)
	up.Register("slow", func(ctx context.Context, op uint32, body []byte) ([]byte, error) {
		<-release
		return body, nil
	})
	cfg := &Config{Upstream: up.Addr(), Routes: []RouteConfig{{Key: "slow", Op: 0}}}
	g, srv := startGateway(t, cfg, Options{MaxInFlight: -1})
	if h := g.Health(); !h.Ready || h.MaxInFlight != 0 || h.InFlight != 0 {
		t.Fatalf("idle health = %+v", h)
	}

	const calls = 3
	var wg sync.WaitGroup
	for i := 0; i < calls; i++ {
		c := dialOrb(t, srv.Addr())
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = c.Invoke("slow", 0, nil) // parks in the upstream handler
		}()
	}
	testutil.Eventually(t, "every relay to park", func() bool { return g.Health().InFlight >= calls })
	if h := g.Health(); h.InFlight != calls || h.Sheds != 0 {
		t.Errorf("health with %d relays parked = %+v", calls, h)
	}
	close(release)
	wg.Wait()
	if h := g.Health(); h.InFlight != 0 {
		t.Errorf("drained health = %+v", h)
	}
}

// TestEndToEndThroughChaos repeats the fast-tier round trip with the
// upstream leg behind a chaos proxy injecting latency and periodic
// connection resets. The gateway's resil pool must absorb the faults:
// every call completes (or fails with a typed error), nothing
// deadlocks, and the pool never exceeds its connection bound.
func TestEndToEndThroughChaos(t *testing.T) {
	mtB := lowerDecl(t, pairDecl())
	up := upstreamEcho(t, "svc", mtB)

	px, err := chaos.New("127.0.0.1:0", up.Addr(), chaos.Faults{
		Latency:    2 * time.Millisecond,
		Jitter:     time.Millisecond,
		ChunkSize:  16,
		ResetAfter: 4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = px.Close() })

	cfg := &Config{
		Upstream: px.Addr(),
		Routes: []RouteConfig{{
			Key:     "svc",
			Op:      7,
			Request: &LaneConfig{From: mixDecl(), To: pairDecl()},
			Reply:   &LaneConfig{From: pairDecl(), To: mixDecl()},
		}},
	}
	const poolSize = 4
	g, srv := startGateway(t, cfg, Options{
		Upstream: resil.Options{
			PoolSize:    poolSize,
			CallTimeout: 5 * time.Second,
			MaxAttempts: 6,
		},
	})

	mtA := lowerDecl(t, mixDecl())
	payload, err := wire.Marshal(mtA, value.NewRecord(value.Real{V: 1.5}, value.NewInt(7)))
	if err != nil {
		t.Fatal(err)
	}
	fwd := oracle(t, mixDecl(), pairDecl(), payload)
	want := oracle(t, pairDecl(), mixDecl(), fwd)

	const workers, calls = 4, 8
	errs := make(chan error, workers*calls)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := orb.Dial(srv.Addr())
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for i := 0; i < calls; i++ {
				got, err := c.Invoke("svc", 7, payload)
				if err != nil {
					errs <- fmt.Errorf("call %d: %w", i, err)
					return
				}
				if !bytes.Equal(got, want) {
					errs <- fmt.Errorf("call %d: bytes diverged", i)
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("gateway deadlocked under chaos")
	}
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	st := g.Stats()
	if len(st.Upstreams) != 1 {
		t.Fatalf("upstreams = %d", len(st.Upstreams))
	}
	u := st.Upstreams[0]
	if u.Conns > poolSize {
		t.Errorf("pool holds %d conns, bound is %d — upstream connections leaked", u.Conns, poolSize)
	}
	if px.Stats().Resets < 1 {
		t.Skip("chaos proxy injected no resets on this run")
	}
	if u.Dials <= 1 {
		t.Errorf("dials = %d after %d resets, want redials", u.Dials, px.Stats().Resets)
	}
}

// goMixSrc is the Go spelling of the fast-tier fixture: field order
// matches mix, so against pair the comparer still has to commute.
const goMixSrc = "package p\n\ntype Mix struct {\n\tR float32\n\tN int32\n}\n"

func goMixDecl() DeclConfig { return DeclConfig{Lang: "go", Source: goMixSrc, Decl: "Mix"} }

// TestEndToEndGoEndpoint: a route with a Go-declared client endpoint —
// clients marshal against the Go struct, the upstream expects the C
// pair, and both lanes transcode oracle-identically.
func TestEndToEndGoEndpoint(t *testing.T) {
	mtB := lowerDecl(t, pairDecl())
	up := upstreamEcho(t, "gosvc", mtB)

	cfg := &Config{
		Upstream: up.Addr(),
		Routes: []RouteConfig{{
			Name:    "go-to-pair",
			Key:     "gosvc",
			Op:      3,
			Request: &LaneConfig{From: goMixDecl(), To: pairDecl()},
			Reply:   &LaneConfig{From: pairDecl(), To: goMixDecl()},
		}},
	}
	g, srv := startGateway(t, cfg, Options{})

	mtA := lowerDecl(t, goMixDecl())
	in := value.NewRecord(value.Real{V: 1.5}, value.NewInt(7))
	payload, err := wire.Marshal(mtA, in)
	if err != nil {
		t.Fatal(err)
	}

	c := dialOrb(t, srv.Addr())
	got, err := c.Invoke("gosvc", 3, payload)
	if err != nil {
		t.Fatal(err)
	}

	fwd := oracle(t, goMixDecl(), pairDecl(), payload)
	want := oracle(t, pairDecl(), goMixDecl(), fwd)
	if !bytes.Equal(got, want) {
		t.Fatalf("gateway bytes % x, oracle % x", got, want)
	}

	st := g.Stats()
	if len(st.Routes) != 1 || st.Routes[0].Requests != 1 {
		t.Fatalf("route stats = %+v", st.Routes)
	}
}

// TestDeclConfigNames: a lane's declarations name their language and C
// data model through the one parse core.LoadSource uses, so the config
// refuses what LoadSource would refuse.
func TestDeclConfigNames(t *testing.T) {
	for _, c := range []struct {
		lang, model, err string
	}{
		{"c", "", ""},
		{"java", "lp64", ""},
		{"", "", "missing lang"},
		{"cobol", "", `unknown language "cobol"`},
		{"c", "LP64", `unknown C data model "LP64"`},
		{"java", "lp46", `unknown C data model "lp46"`},
	} {
		d := mixDecl()
		d.Lang, d.Model = c.lang, c.model
		err := d.validate("lane")
		if (err == nil) != (c.err == "") || err != nil && !strings.Contains(err.Error(), c.err) {
			t.Errorf("lang %q model %q: %v, want %q", c.lang, c.model, err, c.err)
		}
	}
}
