// Fleet upstreams: a route's upstream address may be a comma-separated
// member list ("host1:9901,host2:9901,host3:9901"), in which case the
// gateway forwards through a cluster.Client spanning those members
// instead of a single resil pool. Each route's traffic is pinned by a
// content-derived route key — the exact fingerprint pair of its first
// transcoded lane when it has one — so a route lands on the member
// whose cache is warm for it, spills to that key's replicas under load
// imbalance, and fails over down the rank when a member is unreachable.
package gateway

import (
	"context"
	"sort"
	"strings"

	"repro/internal/cluster"
	"repro/internal/resil"
)

// upstream is one route's forwarding leg — a single pooled endpoint's
// Do or a fleet's — taking a call of either kind. rk is the route's
// content-derived route key (ignored by single endpoints). ctx is the
// relayed request's context: its remaining budget re-encodes onto the
// upstream leg and its cancellation aborts the leg (forwarded upstream
// as a cancel frame).
type upstream func(ctx context.Context, rk []byte, call resil.Call) (resil.Result, error)

// fleetKey canonicalizes a member list so two routes naming the same
// fleet in different orders share one cluster client.
func fleetKey(addrs []string) string {
	s := append([]string(nil), addrs...)
	sort.Strings(s)
	return strings.Join(s, ",")
}

// fleetFor returns (lazily creating) the cluster client for a member
// list. Called with g.mu held.
func (g *Gateway) fleetFor(addrs []string) *cluster.Client {
	key := fleetKey(addrs)
	if c := g.fleets[key]; c != nil {
		return c
	}
	c := cluster.New(addrs, cluster.Options{Resil: g.opts.Upstream})
	g.fleets[key] = c
	return c
}

// retireUpstreams drains pools and fleets no longer referenced by any
// route after a reload: in-flight calls finish, then the connections
// close. Called with g.mu held; the drains run in the background.
func (g *Gateway) retireUpstreams(routes map[string]map[uint32]*route) {
	// A route's upAddr is the key its pool or fleet is filed under.
	live := make(map[string]bool)
	for _, ops := range routes {
		for _, r := range ops {
			live[r.upAddr] = true
		}
	}
	for addr, p := range g.pools {
		if !live[addr] {
			delete(g.pools, addr)
			go func(p *resil.Client) {
				ctx, cancel := context.WithTimeout(context.Background(), cluster.DrainTimeout)
				defer cancel()
				_ = p.Drain(ctx)
			}(p)
		}
	}
	for key, c := range g.fleets {
		if !live[key] {
			delete(g.fleets, key)
			go func(c *cluster.Client) {
				c.SetMembers(nil) // drains every member pool
				_ = c.Close()
			}(c)
		}
	}
}
