// Command mbirdd is the Mockingbird broker daemon: a long-running stub
// compilation service. Clients ship declaration sources over the orb
// protocol; the daemon lowers them, compares pairs, compiles converters,
// and runs conversions, with verdicts, compiled converters, and fused
// wire transcoders shared across all clients through fingerprint-keyed
// caches (see internal/broker).
//
// Usage:
//
//	mbirdd [-addr 127.0.0.1:7465] [-cache N] [-xcache N] [-workers N]
//	       [-max-body BYTES] [-max-key BYTES]
//	       [-max-inflight N] [-max-per-conn N]
//	       [-req-timeout D] [-drain D]
//	       [-cluster HOST:PORT,...] [-cluster-self HOST:PORT]
//	       [-warm] [-warm-timeout D]
//	       [-cpuprofile FILE] [-memprofile FILE]
//
// -max-inflight bounds requests admitted across all connections;
// excess requests are shed with a typed Overloaded error that resilient
// clients retry with backoff. -max-per-conn bounds concurrent requests
// pipelined on a single connection. Readiness and shed counters are
// visible through `mbird remote health`.
//
// -cluster joins the daemon to a sharded fleet (internal/cluster): the
// comma-separated member list must agree across all daemons, and
// -cluster-self (default -addr) names this daemon's entry in it. A
// cluster daemon serves the peer cache-warming protocol alongside the
// broker protocol: it answers verdict pulls, accepts warm pushes, and —
// unless -warm=false — syncs the fleet's warm cache state from its
// peers BEFORE binding its listen port, so a restarted daemon rejoins
// hot and never re-pays a cold compile. -warm-timeout bounds that
// startup sync. Fleet state is visible through `mbird cluster status`.
//
// -cpuprofile starts a pprof CPU profile at startup and writes it out at
// shutdown; -memprofile writes a heap profile (after a GC) at shutdown.
// Inspect either with `go tool pprof`. Profiling a live daemon under a
// replayed workload is how the wire-transcoder fast path was measured;
// conversion-tier counters (wire-path vs tree-path conversions) appear
// in `mbird remote stats`.
//
// On SIGINT/SIGTERM the daemon drains gracefully: the listener closes,
// in-flight requests get up to -drain to finish, then remaining
// connections are force-closed.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"time"

	"repro/internal/broker"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/orb"
	"repro/internal/serve"
)

type config struct {
	addr        string
	cache       int
	xcache      int
	workers     int
	maxBody     int
	maxKey      int
	maxInflight int
	maxPerConn  int
	reqTimeout  time.Duration
	drain       time.Duration
	cluster     string
	clusterSelf string
	warm        bool
	warmTimeout time.Duration
	cpuprofile  string
	memprofile  string
}

func (c *config) register(fs *flag.FlagSet) {
	fs.StringVar(&c.addr, "addr", "127.0.0.1:7465", "listen address")
	fs.IntVar(&c.cache, "cache", 0, "verdict cache capacity (0 = default)")
	fs.IntVar(&c.xcache, "xcache", 0, "wire-transcoder cache capacity (0 = default)")
	fs.IntVar(&c.workers, "workers", 0, "max concurrent compare/compile fills (0 = GOMAXPROCS)")
	fs.IntVar(&c.maxBody, "max-body", 0, "orb frame body limit in bytes (0 = 16 MiB default)")
	fs.IntVar(&c.maxKey, "max-key", 0, "orb object key limit in bytes (0 = 4 KiB default)")
	fs.IntVar(&c.maxInflight, "max-inflight", 0, "admitted requests across all connections (0 = 256 default, negative = unbounded)")
	fs.IntVar(&c.maxPerConn, "max-per-conn", 0, "concurrent requests per connection (0 = 1024 default, negative = unbounded)")
	fs.DurationVar(&c.reqTimeout, "req-timeout", 0, "per-request server deadline (0 = unbounded)")
	fs.DurationVar(&c.drain, "drain", 10*time.Second, "graceful shutdown drain window")
	fs.StringVar(&c.cluster, "cluster", "", "comma-separated fleet member list (enables cluster mode)")
	fs.StringVar(&c.clusterSelf, "cluster-self", "", "this daemon's advertised address in -cluster (default -addr)")
	fs.BoolVar(&c.warm, "warm", true, "sync warm cache state from peers before accepting traffic (cluster mode)")
	fs.DurationVar(&c.warmTimeout, "warm-timeout", 30*time.Second, "startup warm sync budget (cluster mode)")
	fs.StringVar(&c.cpuprofile, "cpuprofile", "", "write a pprof CPU profile to this file (started now, stopped at shutdown)")
	fs.StringVar(&c.memprofile, "memprofile", "", "write a pprof heap profile to this file at shutdown")
}

// start starts a broker daemon on cfg.addr and returns the running
// server, broker, and (in cluster mode) the fleet node. It is the whole
// daemon minus flag parsing, so tests can run it in-process.
//
// In cluster mode the warm sync runs BEFORE the listen port binds:
// until the daemon has drained its peers' warm state it is
// indistinguishable from a dead member, so fleet clients fail its keys
// over cleanly instead of hitting a cold cache.
func start(cfg config) (*orb.Server, *broker.Broker, *cluster.Node, error) {
	b := broker.New(core.NewSession(), broker.Options{
		VerdictCacheSize:    cfg.cache,
		TranscoderCacheSize: cfg.xcache,
		Workers:             cfg.workers,
		MaxInFlight:         cfg.maxInflight,
		RequestTimeout:      cfg.reqTimeout,
	})
	var node *cluster.Node
	if cfg.cluster != "" {
		self := cfg.clusterSelf
		if self == "" {
			self = cfg.addr
		}
		members := cluster.SplitMembers(cfg.cluster)
		if !slices.Contains(members, self) {
			return nil, nil, nil, fmt.Errorf("mbirdd: -cluster-self %q is not in -cluster %q", self, cfg.cluster)
		}
		node = cluster.NewNode(self, members, b, cluster.NodeOptions{})
		if cfg.warm {
			ctx, cancel := context.WithTimeout(context.Background(), cfg.warmTimeout)
			n, err := node.SyncFromPeers(ctx)
			cancel()
			if err != nil {
				// A fleet booting from scratch has no live peer to warm
				// from; that is startup, not failure.
				fmt.Fprintf(os.Stderr, "mbirdd: warm sync: %v (starting cold)\n", err)
			} else if n > 0 {
				fmt.Printf("mbirdd: warmed %d cache entries from peers\n", n)
			}
		}
	}
	srv, err := orb.NewServer(cfg.addr, serve.OrbOptions(cfg.maxBody, cfg.maxKey, cfg.maxPerConn)...)
	if err != nil {
		if node != nil {
			_ = node.Close()
		}
		return nil, nil, nil, err
	}
	broker.Serve(srv, b)
	if node != nil {
		cluster.Serve(srv, node)
	}
	return srv, b, node, nil
}

// writeHeapProfile forces a GC so the profile reflects live objects, then
// writes the heap profile to path.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC()
	return pprof.WriteHeapProfile(f)
}

func main() {
	fs := flag.NewFlagSet("mbirdd", flag.ExitOnError)
	var cfg config
	cfg.register(fs)
	_ = fs.Parse(os.Args[1:])

	if cfg.cpuprofile != "" {
		f, err := os.Create(cfg.cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mbirdd: cpuprofile:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "mbirdd: cpuprofile:", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			_ = f.Close()
		}()
	}

	srv, _, node, err := start(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mbirdd:", err)
		os.Exit(1)
	}
	fmt.Printf("mbirdd: serving on %s\n", srv.Addr())

	drainErr := serve.Run("mbirdd", srv, cfg.drain, nil)
	if node != nil {
		_ = node.Close()
	}
	if cfg.memprofile != "" {
		if err := writeHeapProfile(cfg.memprofile); err != nil {
			fmt.Fprintln(os.Stderr, "mbirdd: memprofile:", err)
		}
	}
	if drainErr != nil {
		fmt.Fprintln(os.Stderr, "mbirdd: drain incomplete:", drainErr)
		if cfg.cpuprofile != "" {
			pprof.StopCPUProfile()
		}
		os.Exit(1)
	}
}
