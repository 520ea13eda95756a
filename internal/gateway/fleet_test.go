package gateway

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/orb"
	"repro/internal/resil"
)

// echoTrio starts three upstream orb servers that answer with their own
// address, so tests can see which fleet member served each relay.
func echoTrio(t *testing.T) (addrs []string, servers map[string]*orb.Server) {
	t.Helper()
	servers = make(map[string]*orb.Server, 3)
	for i := 0; i < 3; i++ {
		srv := orbServer(t)
		addr := srv.Addr()
		srv.Register("echo", func(ctx context.Context, op uint32, body []byte) ([]byte, error) {
			return []byte(addr), nil
		})
		addrs = append(addrs, addr)
		servers[addr] = srv
	}
	return addrs, servers
}

// TestGatewayFleetUpstream relays through a comma-separated fleet
// upstream: the route pins to one member while it is healthy, fails
// over when that member dies, and every member shows up in the stats.
func TestGatewayFleetUpstream(t *testing.T) {
	addrs, servers := echoTrio(t)

	g := New(Options{Upstream: resil.Options{
		MaxAttempts: 2,
		CallTimeout: 5 * time.Second,
		DialTimeout: 2 * time.Second,
	}})
	t.Cleanup(func() { _ = g.Close() })
	cfg := &Config{Routes: []RouteConfig{{
		Key: "echo", Op: 1,
		Upstream: " " + strings.Join(addrs, ", ") + " ", // sloppy spacing must parse
	}}}
	if err := g.SetConfig(cfg); err != nil {
		t.Fatal(err)
	}
	front := orbServer(t)
	g.Serve(front)

	cl, err := orb.Dial(front.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cl.Close() })

	// The route key is stable, so a healthy fleet serves every call from
	// the same member (cache affinity on the upstream side).
	first, err := cl.Invoke("echo", 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		reply, err := cl.Invoke("echo", 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if string(reply) != string(first) {
			t.Fatalf("healthy fleet moved the route: %s then %s", first, reply)
		}
	}

	// Kill the serving member: the relay must fail over, not error.
	_ = servers[string(first)].Close()
	reply, err := cl.Invoke("echo", 1, nil)
	if err != nil {
		t.Fatalf("relay with dead member failed: %v", err)
	}
	if string(reply) == string(first) {
		t.Fatal("dead member kept serving")
	}

	// Every fleet member reports individually in the upstream stats.
	st := g.Stats()
	seen := map[string]bool{}
	for _, u := range st.Upstreams {
		seen[u.Addr] = true
	}
	for _, a := range addrs {
		if !seen[a] {
			t.Fatalf("fleet member %s missing from upstream stats: %+v", a, st.Upstreams)
		}
	}
}

// TestGatewayFleetRetiredOnReload swaps a fleet upstream for a single
// endpoint and back; the retired fleet drains instead of erroring, and
// traffic keeps flowing across both reloads.
func TestGatewayFleetRetiredOnReload(t *testing.T) {
	addrs, _ := echoTrio(t)

	g := New(Options{Upstream: resil.Options{
		MaxAttempts: 2, CallTimeout: 5 * time.Second, DialTimeout: 2 * time.Second,
	}})
	t.Cleanup(func() { _ = g.Close() })
	fleetCfg := &Config{Routes: []RouteConfig{{Key: "echo", Op: 1, Upstream: strings.Join(addrs, ",")}}}
	singleCfg := &Config{Routes: []RouteConfig{{Key: "echo", Op: 1, Upstream: addrs[0]}}}
	if err := g.SetConfig(fleetCfg); err != nil {
		t.Fatal(err)
	}
	front := orbServer(t)
	g.Serve(front)
	cl, err := orb.Dial(front.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cl.Close() })

	for _, cfg := range []*Config{fleetCfg, singleCfg, fleetCfg} {
		if err := g.SetConfig(cfg); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Invoke("echo", 1, nil); err != nil {
			t.Fatalf("relay after reload failed: %v", err)
		}
	}
	g.mu.Lock()
	nFleets := len(g.fleets)
	g.mu.Unlock()
	if nFleets != 1 {
		t.Fatalf("gateway holds %d fleet clients, want 1 (retired fleets must be dropped)", nFleets)
	}
}
