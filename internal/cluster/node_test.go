package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/broker"
	"repro/internal/core"
	"repro/internal/orb"
	"repro/internal/resil"
	"repro/internal/testutil"
	"repro/internal/value"
	"repro/internal/wire"
)

const (
	srcMix  = "typedef struct { float r; int n; } mix;"
	srcPair = "typedef struct { int count; float ratio; } pair;"
)

// fleetNode is one in-process daemon: broker + warm node + orb server.
type fleetNode struct {
	addr string
	b    *broker.Broker
	n    *Node
	srv  *orb.Server
}

// newFleet starts n in-process daemons sharing one member list, exactly
// as n `mbirdd -cluster` processes would.
func newFleet(t *testing.T, n int, opts NodeOptions) []*fleetNode {
	t.Helper()
	fleet := make([]*fleetNode, n)
	var addrs []string
	for i := range fleet {
		srv, err := orb.NewServer("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = srv.Close() })
		fleet[i] = &fleetNode{addr: srv.Addr(), srv: srv}
		addrs = append(addrs, srv.Addr())
	}
	for _, fn := range fleet {
		fn.b = broker.New(core.NewSession(), broker.Options{})
		fn.n = NewNode(fn.addr, addrs, fn.b, opts)
		t.Cleanup(func() { _ = fn.n.Close() })
		broker.Serve(fn.srv, fn.b)
		Serve(fn.srv, fn.n)
	}
	return fleet
}

func loadPair(t *testing.T, b *broker.Broker) {
	t.Helper()
	for _, u := range []struct{ name, src string }{{"ux", srcMix}, {"uy", srcPair}} {
		if _, _, err := b.Load(u.name, "c", "ilp32", u.src, ""); err != nil {
			t.Fatal(err)
		}
	}
}

// A compare on one daemon must replicate its verdict — and the universe
// sources needed to use it — to the pair's ring successors, unasked.
func TestClusterWarmPushReplicatesVerdict(t *testing.T) {
	fleet := newFleet(t, 3, NodeOptions{})
	src := fleet[0]
	loadPair(t, src.b)
	v, err := src.b.Compare("ux", "mix", "uy", "pair")
	if err != nil {
		t.Fatal(err)
	}

	targets := NewRing(src.n.Members()).Ranked(RouteKey("ux", "mix", "uy", "pair"))[:2]
	for _, fn := range fleet {
		isTarget := false
		for _, a := range targets {
			if a == fn.addr {
				isTarget = true
			}
		}
		if !isTarget || fn == src {
			continue
		}
		fn := fn
		testutil.Eventually(t, "verdict push to "+fn.addr, func() bool {
			got, ok := fn.b.PeekVerdict("ux", "mix", "uy", "pair")
			return ok && got.Relation == v.Relation
		})
		// The push carried the load records: the receiver can serve the
		// pair without anyone re-shipping sources.
		if !fn.b.HasUniverse("ux") || !fn.b.HasUniverse("uy") {
			t.Fatalf("push to %s did not load the pair's universes", fn.addr)
		}
		if fn.b.Stats().WarmFills == 0 {
			t.Fatalf("receiver %s did not count the warm fill", fn.addr)
		}
	}
	if st := src.n.Status(); st.PushErrs != 0 || st.PushDrops != 0 {
		t.Fatalf("push errs=%d drops=%d, want 0/0", st.PushErrs, st.PushDrops)
	}
}

// A ConvertRaw fill on one daemon pushes the pair's transcoder recipe to
// its ring successors, which compile it off the request path: a peer's
// first ConvertRaw of the pair is a transcoder-cache hit on a warmed
// entry, not a compile under the client's latency.
func TestClusterWarmPushCompilesTranscoder(t *testing.T) {
	fleet := newFleet(t, 3, NodeOptions{})
	src := fleet[0]
	loadPair(t, src.b)
	mix, err := src.b.Mtype("ux", "mix")
	if err != nil {
		t.Fatal(err)
	}
	payload, err := wire.Marshal(mix, value.NewRecord(value.Real{V: 4.5}, value.NewInt(9)))
	if err != nil {
		t.Fatal(err)
	}
	want, err := src.b.ConvertRaw("ux", "mix", "uy", "pair", payload)
	if err != nil {
		t.Fatal(err)
	}

	var peer *fleetNode
	for _, addr := range NewRing(src.n.Members()).Ranked(RouteKey("ux", "mix", "uy", "pair"))[:2] {
		for _, fn := range fleet {
			if fn.addr == addr && fn != src {
				peer = fn
			}
		}
	}
	testutil.Eventually(t, "transcoder push to "+peer.addr, func() bool { return peer.b.Stats().XcodeEntries == 1 })
	before := peer.b.Stats()
	if before.XcodeCompiles != 1 || before.XcodeHits != 0 || before.WarmHits != 0 {
		t.Fatalf("peer before its first request: %+v, want one warm compile and no hits", before)
	}
	got, err := peer.b.ConvertRaw("ux", "mix", "uy", "pair", payload)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("peer converted to %x, owner to %x", got, want)
	}
	after := peer.b.Stats()
	if after.XcodeHits != 1 || after.WarmHits != before.WarmHits+1 || after.XcodeCompiles != 1 {
		t.Fatalf("peer's first request: %+v, want a transcoder hit on the warmed entry and no compile", after)
	}
}

// A daemon missing a verdict locally pulls it from the pair's owner
// instead of re-running the comparison.
func TestClusterWarmPullSkipsCompare(t *testing.T) {
	fleet := newFleet(t, 3, NodeOptions{})
	// Seed every broker but fleet[2]'s with the verdict, so whichever
	// peer node 2 ranks first for the pair can answer the pull. Seeding
	// goes through WarmVerdict — not Compare — because a compare would
	// also push the verdict to the pair's replicas, and if fleet[2] is
	// one, the push could beat the pull this test is about.
	for _, fn := range fleet[:2] {
		loadPair(t, fn.b)
		if _, err := fn.b.WarmVerdict("ux", "mix", "uy", "pair", core.RelEquivalent, 1, ""); err != nil {
			t.Fatal(err)
		}
	}
	late := fleet[2]
	loadPair(t, late.b)
	v, err := late.b.Compare("ux", "mix", "uy", "pair")
	if err != nil {
		t.Fatal(err)
	}
	if v.Relation != core.RelEquivalent {
		t.Fatalf("relation = %v, want equivalent", v.Relation)
	}
	st := late.b.Stats()
	if st.CompareRuns != 0 {
		t.Fatalf("CompareRuns = %d, want 0 (verdict should come from a peer)", st.CompareRuns)
	}
	if st.PeerPulls != 1 {
		t.Fatalf("PeerPulls = %d, want 1", st.PeerPulls)
	}
	if ns := late.n.Status(); ns.PullsSent != 1 {
		t.Fatalf("node PullsSent = %d, want 1", ns.PullsSent)
	}
}

// SyncFromPeers drains the fleet's warm state into a cold broker:
// universes load, verdicts adopt, converters and transcoders recompile
// locally — the restart path, minus the process restart.
func TestClusterWarmSyncFromPeers(t *testing.T) {
	fleet := newFleet(t, 3, NodeOptions{})
	src := fleet[0]
	loadPair(t, src.b)
	if _, err := src.b.Compare("ux", "mix", "uy", "pair"); err != nil {
		t.Fatal(err)
	}
	if err := src.b.WarmConverter("ux", "mix", "uy", "pair"); err != nil {
		t.Fatal(err)
	}

	// A cold broker joins under a fresh node with the same member list.
	cold := broker.New(core.NewSession(), broker.Options{})
	nc := NewNode("127.0.0.1:1", append(src.n.Members(), "127.0.0.1:1"), cold, NodeOptions{})
	defer nc.Close()
	warmed, err := nc.SyncFromPeers(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if warmed == 0 {
		t.Fatal("sync warmed nothing")
	}
	if _, ok := cold.PeekVerdict("ux", "mix", "uy", "pair"); !ok {
		t.Fatal("verdict not synced")
	}
	st := cold.Stats()
	if st.WarmFills == 0 {
		t.Fatalf("WarmFills = %d, want > 0", st.WarmFills)
	}
	if st.Compiles == 0 {
		t.Fatal("converter recipe did not recompile on the cold broker")
	}
	// The entire sync happened off the request path: a client-visible
	// compare now is a pure warm hit, no compare run.
	if _, err := cold.Compare("ux", "mix", "uy", "pair"); err != nil {
		t.Fatal(err)
	}
	st = cold.Stats()
	if st.CompareRuns != 0 {
		t.Fatalf("CompareRuns = %d after sync, want 0", st.CompareRuns)
	}
	if st.WarmHits == 0 {
		t.Fatal("request served by warmed entry did not count a warm hit")
	}
	if ns := nc.Status(); ns.Synced == 0 {
		t.Fatalf("node Synced = %d, want > 0", ns.Synced)
	}
}

// Peer admission: a node sheds peer requests beyond MaxPeerInFlight with
// a typed overload instead of letting a peer storm crowd out clients.
func TestClusterPeerAdmission(t *testing.T) {
	fleet := newFleet(t, 2, NodeOptions{MaxPeerInFlight: 1})
	target := fleet[0]

	// Saturate the single admission slot, as a slow pull would.
	if err := target.n.chassis.Admit(); err != nil {
		t.Fatal(err)
	}
	rc := resil.New(target.addr, resil.Options{MaxAttempts: 1, CallTimeout: 2 * time.Second})
	defer rc.Close()
	_, err := FetchStatus(context.Background(), rc)
	if !errors.Is(err, orb.ErrOverloaded) {
		t.Fatalf("saturated peer service answered %v, want orb.ErrOverloaded", err)
	}
	target.n.chassis.Release()
	testutil.Eventually(t, "admission slot release", func() bool {
		_, err := FetchStatus(context.Background(), rc)
		return err == nil
	})
}

func TestClusterNodeStatusOverWire(t *testing.T) {
	fleet := newFleet(t, 2, NodeOptions{})
	rc := resil.New(fleet[0].addr, resil.Options{MaxAttempts: 2, CallTimeout: 5 * time.Second})
	defer rc.Close()
	st, err := FetchStatus(context.Background(), rc)
	if err != nil {
		t.Fatal(err)
	}
	if st.Self != fleet[0].addr {
		t.Fatalf("Self = %q, want %q", st.Self, fleet[0].addr)
	}
	if fmt.Sprint(st.Members) != fmt.Sprint(fleet[0].n.Members()) {
		t.Fatalf("Members = %v, want %v", st.Members, fleet[0].n.Members())
	}
}
