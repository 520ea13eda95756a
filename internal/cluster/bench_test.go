package cluster

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/broker"
	"repro/internal/core"
	"repro/internal/orb"
)

// BenchmarkClusterColdVsWarm measures what one rolling restart of a
// 3-node fleet member costs in recompiles. Each iteration kills the
// member, restarts it, restores its working set of 12 verdict pairs,
// and counts the comparison runs the restart re-paid. With peer
// warming the restart syncs the fleet's content-addressed entries
// before serving and re-pays nothing; with warming off it must re-run
// every comparison its traffic touches; the warm/cold ratio is the
// acceptance number (TestChaosClusterWarmRestart asserts the zero).
func BenchmarkClusterColdVsWarm(b *testing.B) {
	const nPairs = 12

	type pair struct{ ua, srcA, ub, srcB, da, db string }
	pairs := make([]pair, nPairs)
	for i := range pairs {
		pairs[i] = pair{
			ua: fmt.Sprintf("bx%d", i), da: fmt.Sprintf("mix%d", i),
			ub: fmt.Sprintf("by%d", i), db: fmt.Sprintf("pair%d", i),
			srcA: fmt.Sprintf("typedef struct { float r%d; int n%d; char tag%d[%d]; } mix%d;", i, i, i, i+2, i),
			srcB: fmt.Sprintf("typedef struct { int count%d; char label%d[%d]; float ratio%d; } pair%d;", i, i, i+2, i, i),
		}
	}
	loadAll := func(b *testing.B, br *broker.Broker) {
		b.Helper()
		for _, p := range pairs {
			if _, _, err := br.Load(p.ua, "c", "ilp32", p.srcA, ""); err != nil {
				b.Fatal(err)
			}
			if _, _, err := br.Load(p.ub, "c", "ilp32", p.srcB, ""); err != nil {
				b.Fatal(err)
			}
		}
	}
	sweep := func(b *testing.B, br *broker.Broker) {
		b.Helper()
		for _, p := range pairs {
			if v, err := br.Compare(p.ua, p.da, p.ub, p.db); err != nil || v.Relation != core.RelEquivalent {
				b.Fatalf("compare %s/%s: %+v err=%v", p.da, p.db, v, err)
			}
		}
	}
	recompiles := func(br *broker.Broker) int64 {
		st := br.Stats()
		return st.CompareRuns + st.Compiles + st.XcodeCompiles
	}

	// A 2-member steady fleet holds the working set; the third member is
	// the restart victim of every iteration.
	steady := make([]*fleetNode, 2)
	var members []string
	victimAddr := func(b *testing.B) string {
		b.Helper()
		ln, err := orb.NewServer("127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		addr := ln.Addr()
		_ = ln.Close()
		return addr
	}(b)
	for i := range steady {
		srv, err := orb.NewServer("127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { _ = srv.Close() })
		steady[i] = &fleetNode{addr: srv.Addr(), srv: srv}
		members = append(members, srv.Addr())
	}
	members = append(members, victimAddr)
	for _, fn := range steady {
		fn.b = broker.New(core.NewSession(), broker.Options{})
		fn.n = NewNode(fn.addr, members, fn.b, NodeOptions{})
		b.Cleanup(func() { _ = fn.n.Close() })
		broker.Serve(fn.srv, fn.b)
		Serve(fn.srv, fn.n)
	}
	// Warm the steady members with the full working set once: this is the
	// fleet state a rolling restart finds.
	for _, fn := range steady {
		loadAll(b, fn.b)
		sweep(b, fn.b)
	}

	// warming-on restarts sync from peers before serving, the cluster
	// path. warming-off restarts with the warming subsystem absent — no
	// node at all, the pre-cluster baseline — and reloads sources the way
	// a deployment would (Load re-pays no compiles by itself).
	restart := func(b *testing.B, warm bool) (*broker.Broker, *Node, *orb.Server) {
		b.Helper()
		br := broker.New(core.NewSession(), broker.Options{})
		var n *Node
		if warm {
			n = NewNode(victimAddr, members, br, NodeOptions{})
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			if _, err := n.SyncFromPeers(ctx); err != nil {
				b.Fatal(err)
			}
			cancel()
		} else {
			loadAll(b, br)
		}
		srv, err := orb.NewServer(victimAddr)
		if err != nil {
			b.Fatal(err)
		}
		broker.Serve(srv, br)
		if n != nil {
			Serve(srv, n)
		}
		return br, n, srv
	}

	for _, mode := range []struct {
		name string
		warm bool
	}{{"warming-off", false}, {"warming-on", true}} {
		b.Run(mode.name, func(b *testing.B) {
			var repaid int64
			for i := 0; i < b.N; i++ {
				br, n, srv := restart(b, mode.warm)
				before := recompiles(br)
				sweep(b, br) // restore the victim's working set
				repaid += recompiles(br) - before
				_ = srv.Close()
				if n != nil {
					_ = n.Close()
				}
			}
			b.ReportMetric(float64(repaid)/float64(b.N), "recompiles/restart")
		})
	}
}
