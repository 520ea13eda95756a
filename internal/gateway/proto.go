// Admin protocol for the interop gateway: health, stats, and reload ops
// served under a reserved object key on the same orb listener as the
// proxied traffic. Payloads are CDR against small protocol Mtypes
// (shared with the broker's admin plane via internal/proto), so the
// gateway's control surface speaks the exact wire format its data plane
// transcodes.
package gateway

import (
	"context"
	"fmt"

	"repro/internal/orb"
	"repro/internal/proto"
)

// AdminKey is the orb object key the gateway's admin service is served
// under; the route table may not claim it.
const AdminKey = "mbird.gateway"

// Admin ops.
const (
	// OpHealth: empty → the Health record (see healthRec). Served without
	// admission control so it answers while the data plane is saturated.
	OpHealth uint32 = iota + 1
	// OpStats: empty → the Stats record (see statsRec), which nests a
	// list of route records and a list of upstream records.
	OpStats
	// OpReload: empty → proto.Count of routes. Re-reads the route table through
	// the configured reloader and swaps it in; the reply carries the new
	// route count.
	OpReload
)

// The admin records, each declared once: Mtype, server encode and client
// decode all derive from these field lists.
var (
	healthRec = proto.Declare(func(h *Health) []proto.Field {
		return h.Fields(proto.Num(&h.Routes), proto.Num(&h.Lanes))
	})
	routeRec = proto.Declare(func(r *RouteStats) []proto.Field {
		return []proto.Field{
			proto.String(&r.Name),
			proto.Num(&r.Requests), proto.Num(&r.FastTier), proto.Num(&r.TreeTier), proto.Num(&r.Passthrough),
			proto.Num(&r.Streamed),
			proto.Num(&r.TranscodeTotal), proto.Num(&r.UpstreamErrors), proto.Num(&r.Sheds), proto.Num(&r.BudgetRejects),
		}
	})
	upstreamRec = proto.Declare(func(u *UpstreamStats) []proto.Field {
		return []proto.Field{
			proto.String(&u.Addr),
			proto.Num(&u.Conns), proto.Num(&u.Dials), proto.Num(&u.Discards), proto.Num(&u.Retries),
			proto.Num(&u.Overloads), proto.Num(&u.Hedges), proto.Num(&u.HedgeWins),
			proto.Num(&u.BudgetExhausted), proto.Num(&u.BreakerTrips),
		}
	})
	statsRec = proto.Declare(func(st *Stats) []proto.Field {
		return []proto.Field{
			proto.List(&st.Routes, routeRec.Field), proto.List(&st.Upstreams, upstreamRec.Field),
			proto.Num(&st.LaneCompiles), proto.Num(&st.LaneUnsupported), proto.Num(&st.LaneReuses),
			proto.Num(&st.InFlight), proto.Num(&st.Sheds),
			proto.Num(&st.Expired), proto.Num(&st.Canceled),
		}
	})
)

// adminHandler serves the admin ops. Health and stats are pure counter
// reads; reload takes the control-plane lock but never blocks the data
// plane (the table swap is atomic).
func (g *Gateway) adminHandler() orb.Handler {
	return func(ctx context.Context, op uint32, body []byte) ([]byte, error) {
		switch op {
		case OpHealth:
			h := g.Health()
			return healthRec.Marshal(&h)

		case OpStats:
			st := g.Stats()
			return statsRec.Marshal(&st)

		case OpReload:
			n, err := g.Reload()
			if err != nil {
				return nil, err
			}
			return proto.Count.Marshal(&n)

		default:
			return nil, fmt.Errorf("gateway: unknown admin op %d", op)
		}
	}
}

// Client is a typed client for the gateway admin protocol.
type Client struct {
	t proto.Transport
}

// NewTransportClient wraps any proto.Transport — typically a
// resil.Client (safe: every admin op except reload is a pure read, and
// reload is idempotent against an unchanged route file).
func NewTransportClient(t proto.Transport) *Client { return &Client{t: t} }

// Close releases the underlying transport.
func (c *Client) Close() error { return c.t.Close() }

// HealthContext fetches the gateway's health snapshot.
func (c *Client) HealthContext(ctx context.Context) (Health, error) {
	reply, err := c.t.InvokeContext(ctx, AdminKey, OpHealth, nil)
	if err != nil {
		return Health{}, err
	}
	var h Health
	err = healthRec.Unmarshal(reply, &h)
	return h, err
}

// StatsContext fetches the gateway's stats snapshot.
func (c *Client) StatsContext(ctx context.Context) (Stats, error) {
	reply, err := c.t.InvokeContext(ctx, AdminKey, OpStats, nil)
	if err != nil {
		return Stats{}, err
	}
	var st Stats
	err = statsRec.Unmarshal(reply, &st)
	return st, err
}

// ReloadContext asks the gateway to re-read its route table; it returns the
// new route count.
func (c *Client) ReloadContext(ctx context.Context) (int, error) {
	reply, err := c.t.InvokeContext(ctx, AdminKey, OpReload, nil)
	if err != nil {
		return 0, err
	}
	var n int
	err = proto.Count.Unmarshal(reply, &n)
	return n, err
}
