package cluster

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/broker"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/orb"
	"repro/internal/resil"
	"repro/internal/testutil"
)

// reservePort grabs an ephemeral port and frees it so a daemon can bind
// it — and, crucially, bind it AGAIN after a restart.
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

// chaosDaemon is one restartable fleet member: its fixed listen address,
// the chaos proxy in front of it (whose address is the member address
// every peer and client dials), and the current broker/node/server
// incarnation.
type chaosDaemon struct {
	listenAddr string
	proxy      *chaos.Proxy
	b          *broker.Broker
	n          *Node
	srv        *orb.Server
}

// start boots (or reboots) the daemon: fresh broker, warm sync from
// peers BEFORE the listener binds (exactly mbirdd's cluster startup
// order), then serve.
func (d *chaosDaemon) start(t *testing.T, self string, members []string, warm bool) {
	t.Helper()
	d.b = broker.New(core.NewSession(), broker.Options{})
	d.n = NewNode(self, members, d.b, NodeOptions{})
	if warm {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if _, err := d.n.SyncFromPeers(ctx); err != nil {
			t.Logf("warm sync: %v (starting cold)", err)
		}
	}
	srv, err := orb.NewServer(d.listenAddr)
	if err != nil {
		t.Fatal(err)
	}
	d.srv = srv
	broker.Serve(srv, d.b)
	Serve(srv, d.n)
}

func (d *chaosDaemon) kill() {
	_ = d.srv.Close()
	_ = d.n.Close()
}

// chaosPairs are distinct equivalent declaration pairs, so the fleet's
// cold compiles spread across several ring owners.
func chaosPairs(n int) [][4]string {
	out := make([][4]string, n)
	for i := range out {
		out[i] = [4]string{
			fmt.Sprintf("cx%d", i), fmt.Sprintf("typedef struct { float r%d; int n%d; char tag%d[%d]; } mix%d;", i, i, i, i+2, i),
			fmt.Sprintf("cy%d", i), fmt.Sprintf("typedef struct { int count%d; char label%d[%d]; float ratio%d; } pair%d;", i, i, i+2, i, i),
		}
	}
	return out
}

// keyed is a proto.Transport sending every call through a fleet client
// under one route key.
type keyed struct {
	c  *Client
	rk []byte
}

func (k keyed) InvokeContext(ctx context.Context, key string, op uint32, body []byte) ([]byte, error) {
	res, err := k.c.Do(ctx, k.rk, resil.Call{Key: key, Op: op, Body: body})
	return res.Reply, err
}

func (k keyed) Close() error { return nil }

// TestChaosClusterWarmRestart kills and restarts one member of a 3-node
// fleet behind chaos proxies while a client hammers the fleet, and
// asserts the two cluster invariants: no request is dropped during the
// outage or the rejoin, and after the restarted member warm-syncs, the
// fleet serves the whole working set without re-running a single
// comparison — the warm-cache hit rate recovers without recompiles.
func TestChaosClusterWarmRestart(t *testing.T) {
	const nodes = 3
	daemons := make([]*chaosDaemon, nodes)
	var members []string
	for i := range daemons {
		d := &chaosDaemon{listenAddr: reservePort(t)}
		p, err := chaos.New("127.0.0.1:0", d.listenAddr, chaos.Faults{
			Latency: 200 * time.Microsecond,
			Jitter:  300 * time.Microsecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = p.Close() })
		d.proxy = p
		daemons[i] = d
		members = append(members, p.Addr())
	}
	for i, d := range daemons {
		d.start(t, members[i], members, false)
	}
	t.Cleanup(func() {
		for _, d := range daemons {
			d.kill()
		}
	})

	// Every member loads the working set; compares go through one fleet
	// client routed by pair, as the gateway's fleet routes send them.
	fc := New(members, testOpts())
	defer fc.Close()
	pairs := chaosPairs(8)
	for _, d := range daemons {
		for _, p := range pairs {
			if _, _, err := d.b.Load(p[0], "c", "ilp32", p[1], ""); err != nil {
				t.Fatal(err)
			}
			if _, _, err := d.b.Load(p[2], "c", "ilp32", p[3], ""); err != nil {
				t.Fatal(err)
			}
		}
	}
	compareAll := func() error {
		for i, p := range pairs {
			ua, da, ub, db := p[0], fmt.Sprintf("mix%d", i), p[2], fmt.Sprintf("pair%d", i)
			c := broker.NewTransportClient(keyed{fc, RouteKey(ua, da, ub, db)})
			v, err := c.CompareContext(context.Background(), ua, da, ub, db)
			if err != nil {
				return fmt.Errorf("pair %d: %w", i, err)
			}
			if v.Relation != core.RelEquivalent {
				return fmt.Errorf("pair %d: relation %v", i, v.Relation)
			}
		}
		return nil
	}
	// Cold round: every pair compiles once, somewhere in the fleet.
	if err := compareAll(); err != nil {
		t.Fatal(err)
	}
	// Let the push workers finish replicating to successors, so the
	// survivors hold the victim's entries before it dies.
	testutil.Eventually(t, "warm replication of the working set", func() bool {
		var fills int64
		for _, d := range daemons {
			fills += d.b.Stats().WarmFills
		}
		return fills >= int64(len(pairs))
	})

	// Continuous load while one member dies and rejoins. Every request
	// must succeed: failover covers the outage, warm sync the rejoin.
	var clientErrs atomic.Int64
	var requests atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := compareAll(); err != nil {
					t.Log(err)
					clientErrs.Add(1)
				}
				requests.Add(int64(len(pairs)))
			}
		}()
	}

	time.Sleep(50 * time.Millisecond)
	// The victim is pair 0's ring owner: proxy ports, and so ring shares,
	// differ run to run, and the warm-hit audit below needs the restarted
	// member to own part of the working set.
	owner := NewRing(members).Owner(RouteKey(pairs[0][0], "mix0", pairs[0][2], "pair0"))
	vi := 0
	for i, m := range members {
		if m == owner {
			vi = i
		}
	}
	victim := daemons[vi]
	victim.kill()
	time.Sleep(100 * time.Millisecond) // fleet serves 2-of-3 for a while
	victim.start(t, members[vi], members, true)
	time.Sleep(100 * time.Millisecond) // rejoined member takes traffic again
	close(stop)
	wg.Wait()

	if n := clientErrs.Load(); n != 0 {
		t.Fatalf("%d of %d requests failed during kill/restart", n, requests.Load())
	}

	// The restarted member must have warmed from its peers, not from
	// client traffic re-paying compiles.
	if victim.b.Stats().WarmFills == 0 {
		t.Fatal("restarted member has no warm fills after sync")
	}
	if victim.n.Status().Synced == 0 {
		t.Fatal("restarted member synced nothing")
	}

	// Recompile audit: one more full sweep of the working set must not
	// run a single new comparison anywhere in the fleet, and must be
	// served (at least partly) by warmed entries.
	runsBefore, warmHitsBefore := int64(0), int64(0)
	for _, d := range daemons {
		st := d.b.Stats()
		runsBefore += st.CompareRuns
		warmHitsBefore += st.WarmHits
	}
	if err := compareAll(); err != nil {
		t.Fatal(err)
	}
	runsAfter, warmHitsAfter := int64(0), int64(0)
	for _, d := range daemons {
		st := d.b.Stats()
		runsAfter += st.CompareRuns
		warmHitsAfter += st.WarmHits
	}
	if runsAfter != runsBefore {
		t.Fatalf("post-restart sweep re-ran %d comparisons, want 0", runsAfter-runsBefore)
	}
	if warmHitsAfter <= warmHitsBefore {
		t.Fatal("post-restart sweep recorded no warm hits")
	}
}

// TestChaosStalledMemberBreakerAndBudget drives concurrent keyed load at
// a 3-member fleet with one member wedged behind a stall proxy (alive,
// glacially slow — the gray failure) and asserts the deadline/breaker
// contract end to end:
//
//   - zero dropped requests: every call is served by a healthy member
//     after the per-attempt deadline gives up on the stalled one;
//   - the stalled member's breaker opens and subsequent traffic is
//     skipped past it without paying a timeout first;
//   - total attempts at the stalled member stay within the shared retry
//     budget — a bounded trickle, not a retry storm;
//   - the stalled member does zero work on behalf of callers that gave
//     up: its handler never runs, and a budget-carrying request that
//     finally trickles in is shed pre-dispatch on the server-side
//     Expired counter.
func TestChaosStalledMemberBreakerAndBudget(t *testing.T) {
	// Three echo servers; the first sits behind a stall proxy that lets
	// one request head through, then trickles.
	addrs, servers, calls := echoFleet(t, 3)
	wedged := addrs[0]
	proxy, err := chaos.New("127.0.0.1:0", wedged, chaos.Faults{
		StallAfter:    22, // request head (18) + budget (4); the server writes nothing first
		StallInterval: 25 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = proxy.Close() })
	members := []string{proxy.Addr(), addrs[1], addrs[2]}
	stalled := members[0]

	budget := resil.NewRetryBudget(0.1, 32)
	c := New(members, Options{
		Resil: resil.Options{
			MaxAttempts: 1, // the cluster rank, not resil, owns failover here
			DialTimeout: time.Second,
			CallTimeout: 200 * time.Millisecond,
			RetryBudget: budget,
		},
	})
	defer c.Close()

	// Pick keys with known owners so the load provably crosses the
	// stalled member.
	var stalledKeys, healthyKeys [][]byte
	for i := 0; len(stalledKeys) < 4 || len(healthyKeys) < 4; i++ {
		if i > 4096 {
			t.Fatal("could not find keys for both owner classes")
		}
		rk := RouteKey("stall", fmt.Sprint(i))
		if NewRing(members).Ranked(rk)[0] == stalled {
			stalledKeys = append(stalledKeys, rk)
		} else {
			healthyKeys = append(healthyKeys, rk)
		}
	}

	const workers, perWorker = 3, 40
	var clientErrs, successes atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				rk := healthyKeys[i%len(healthyKeys)]
				if i%3 == 0 {
					rk = stalledKeys[i%len(stalledKeys)]
				}
				if _, err := c.Do(context.Background(), rk, resil.Call{Key: "echo", Body: []byte{byte(w), byte(i)}}); err != nil {
					t.Logf("worker %d call %d: %v", w, i, err)
					clientErrs.Add(1)
					continue
				}
				successes.Add(1)
			}
		}(w)
	}
	wg.Wait()

	if n := clientErrs.Load(); n != 0 {
		t.Fatalf("%d of %d requests dropped; spillover must cover a stalled member", n, workers*perWorker)
	}
	st := c.Stats()
	if st.BreakerTrips < 1 {
		t.Error("stalled member's breaker never tripped")
	}
	if st.BreakerSkips < 1 {
		t.Error("open breaker never skipped the stalled member")
	}
	for _, m := range st.Members {
		if m.Addr == stalled && m.Breaker == "closed" {
			t.Errorf("stalled member breaker = %s, want open or half-open", m.Breaker)
		}
	}
	// Every failover here paid the stalled member's deadline first, and
	// each such duplicative failover bought a retry-budget token — so the
	// failover count is exactly the attempt tax the stall extracted.
	// Bounded two ways: the budget invariant (reserve + ratio·successes),
	// and an absolute ceiling that a retry storm would blow through.
	bound := int64(32) + successes.Load()/10
	if st.Failovers > bound {
		t.Errorf("failovers = %d exceed the retry budget bound %d", st.Failovers, bound)
	}
	if st.Failovers > 30 {
		t.Errorf("failovers = %d; a tripped breaker should cap attempts near its threshold plus probes", st.Failovers)
	}
	if st.Failovers < 1 {
		t.Error("no failovers recorded; the stalled member was never even tried")
	}
	if proxy.Stats().Stalls < 1 {
		t.Error("stall fault never engaged")
	}
	if n := calls[wedged].Load(); n != 0 {
		t.Errorf("stalled member ran %d handler calls for abandoned requests, want 0", n)
	}

	// Budget-shed proof: a patient client (no local deadline, explicit
	// 150ms wire budget) keeps the connection open while its request
	// trickles through the stall, so the server finally assembles the
	// frame, sees the budget long spent, and sheds it pre-dispatch.
	oc, err := orb.Dial(proxy.Addr())
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _ = oc.InvokeContext(orb.ContextWithBudget(context.Background(), 150*time.Millisecond), "echo", 0, nil)
	}()
	testutil.Eventually(t, "pre-dispatch expired shed on the stalled member", func() bool {
		return servers[wedged].Stats().Expired >= 1
	})
	_ = oc.Close()
	<-done
	if n := calls[wedged].Load(); n != 0 {
		t.Errorf("stalled member did %d handler calls, want 0 — expired requests must be shed before work starts", n)
	}
}
