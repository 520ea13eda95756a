package gateway

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/orb"
	"repro/internal/resil"
)

// TestChaosGatewayBudgetShedStalledUpstream proves end-to-end budget
// propagation across the relay hop: a client gives the whole multi-hop
// path a 200ms wire budget while staying patient locally, the gateway
// derives its handler deadline from that budget, and when the upstream
// leg wedges behind a stall proxy the client gets the typed orb
// ErrExpired back — from the gateway, well before the client's own
// timeout — while the upstream does zero work on the abandoned call.
func TestChaosGatewayBudgetShedStalledUpstream(t *testing.T) {
	up := orbServer(t)
	var upstreamOps atomic.Int64
	up.Register("svc", func(ctx context.Context, op uint32, body []byte) ([]byte, error) {
		upstreamOps.Add(1)
		return body, nil
	})
	// The stall lets the magic of the gateway's request through, then
	// trickles the rest at one byte per interval — an upstream that is
	// alive but wedged.
	proxy, err := chaos.New("127.0.0.1:0", up.Addr(), chaos.Faults{
		StallAfter:    4, // request magic (4); the upstream writes nothing first
		StallInterval: 25 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = proxy.Close() })

	cfg := &Config{Routes: []RouteConfig{{
		Key: "svc", Op: 0, Upstream: proxy.Addr(),
	}}}
	g, srv := startGateway(t, cfg, Options{
		Upstream: resil.Options{MaxAttempts: 1, DialTimeout: time.Second},
	})

	c := dialOrb(t, srv.Addr())

	// Patient locally (5s), tight on the wire (200ms): the typed expiry
	// must come back from the gateway, not from a local timeout.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	ctx = orb.ContextWithBudget(ctx, 200*time.Millisecond)
	start := time.Now()
	_, err = c.InvokeContext(ctx, "svc", 0, []byte("abandoned"))
	elapsed := time.Since(start)
	if !errors.Is(err, orb.ErrExpired) {
		t.Fatalf("err = %v, want orb.ErrExpired from the gateway", err)
	}
	if elapsed >= 4*time.Second {
		t.Errorf("expiry took %v; the gateway should answer at its budget deadline, not the client's timeout", elapsed)
	}
	if upstreamOps.Load() != 0 {
		t.Errorf("upstream ran %d ops for a call whose budget expired in the relay", upstreamOps.Load())
	}
	if st := proxy.Stats(); st.Accepted < 1 || st.Stalls < 1 {
		t.Errorf("proxy stats = %+v; the upstream leg never engaged the stall", st)
	}
	if g.Stats().Expired < 1 {
		t.Error("gateway Expired counter did not record the budget-spent relay")
	}
	if h := g.Health(); h.Expired < 1 {
		t.Error("gateway health does not surface the expired relay")
	}
}
