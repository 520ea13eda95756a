package gateway

import (
	"context"
	"errors"
	"fmt"
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

// pastDeadline is a context whose deadline has passed while its Err is
// still nil: the state a budget-derived context is in between its
// deadline and the run of the timer that ends it.
type pastDeadline struct{ context.Context }

func (pastDeadline) Deadline() (time.Time, bool) { return time.Now().Add(-time.Millisecond), true }

// TestUpstreamExpiryTable: how the gateway answers a failed upstream leg,
// by the error and the state of the relay's context. A passed deadline is
// an expiry even before the context says so: orb's reply-wait backstop can
// beat the context's own timer.
func TestUpstreamExpiryTable(t *testing.T) {
	spent, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	gone, leave := context.WithCancel(context.Background())
	leave()
	ahead, cancelAhead := context.WithTimeout(context.Background(), time.Hour)
	defer cancelAhead()
	reset := errors.New("connection reset by peer")
	for _, tc := range []struct {
		name              string
		ctx               context.Context
		err               error
		want              error // nil: a plain upstream error
		expired, canceled int64
	}{
		{"upstream expiry", context.Background(), fmt.Errorf("orb: remote: %w", orb.ErrExpired), orb.ErrExpired, 1, 0},
		{"deadline exceeded", spent, orb.ErrDeadline, orb.ErrExpired, 1, 0},
		{"deadline passed, Err nil", pastDeadline{context.Background()}, orb.ErrDeadline, orb.ErrExpired, 1, 0},
		{"caller canceled", gone, reset, orb.ErrCanceled, 0, 1},
		{"deadline ahead", ahead, reset, nil, 0, 0},
		{"no deadline", context.Background(), reset, nil, 0, 0},
	} {
		g, r := &Gateway{}, &route{upAddr: "up:1", live: new(RouteStats)}
		err := g.mapUpstreamErr(tc.ctx, r, tc.err)
		switch {
		case tc.want != nil && !errors.Is(err, tc.want):
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		case tc.want == nil && (errors.Is(err, orb.ErrExpired) || errors.Is(err, orb.ErrCanceled) || !errors.Is(err, reset)):
			t.Errorf("%s: err = %v, want a plain upstream error", tc.name, err)
		}
		if g.live.Expired != tc.expired || g.live.Canceled != tc.canceled || r.live.UpstreamErrors != 1 {
			t.Errorf("%s: expired %d canceled %d upstream errors %d, want %d %d 1",
				tc.name, g.live.Expired, g.live.Canceled, r.live.UpstreamErrors, tc.expired, tc.canceled)
		}
	}
}
