// Command mbirdgw is the Mockingbird interop gateway: an orb-framed
// proxy that bridges live traffic between endpoints speaking mismatched
// declarations. Clients connect to the gateway and marshal against
// their own declaration; the gateway transcodes each request to the
// upstream's declaration in flight — over the fused wire-to-wire fast
// path where the coercion plan permits, through the tree engine
// otherwise — and transcodes each reply back (see internal/gateway).
//
// Usage:
//
//	mbirdgw -routes FILE [-addr 127.0.0.1:7466]
//	        [-max-inflight N] [-admit-wait D] [-max-payload BYTES]
//	        [-max-body BYTES] [-max-per-conn N]
//	        [-stream-threshold BYTES]
//	        [-pool N] [-call-timeout D] [-dial-timeout D]
//	        [-retries N] [-hedge] [-drain D]
//
// -routes names the JSON route table (see gateway.Config). The table is
// hot-reloadable: SIGHUP — or the admin reload op, `mbird remote
// reload -gateway` — re-reads the file and swaps the table in atomically
// without dropping client connections; if the new table fails to
// compile, the old one keeps serving and the error is logged.
//
// Clients that open orb streams instead of sending buffered requests
// relay chunk-by-chunk once the request body outgrows -stream-threshold
// (default 1 MiB), so payload size stops being bounded by gateway
// memory; bodies within the threshold divert to the ordinary buffered
// relay with its full resilience envelope. A negative threshold
// disables the streaming lane.
//
// The upstream flags (-pool, -call-timeout, -retries, -hedge) tune the
// resilient connection pools the gateway forwards through. Per-route
// counters — requests, fast-tier vs tree-tier transcodes, upstream
// errors, sheds — are served on the reserved "mbird.gateway" admin
// object, scrapeable via `mbird remote stats -gateway -json`.
//
// A route's upstream may be a comma-separated member list
// ("host1:7465,host2:7465,host3:7465") naming a sharded broker fleet
// (mbirdd -cluster) or any replicated orb service: the gateway then
// forwards through a cluster client (internal/cluster) that pins the
// route to its ring owner by the route's declaration-pair fingerprint,
// spills to the pair's replicas under load imbalance, and fails over
// when a member is down — so a rolling restart upstream costs latency,
// not errors. Each fleet member appears individually in the upstream
// stats.
//
// On SIGINT/SIGTERM the gateway drains gracefully: the listener closes,
// in-flight relays get up to -drain to finish, then remaining
// connections are force-closed.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/gateway"
	"repro/internal/orb"
	"repro/internal/resil"
	"repro/internal/serve"
)

type config struct {
	addr        string
	routes      string
	maxInflight int
	admitWait   time.Duration
	maxPayload  int
	maxBody     int
	maxPerConn  int
	streamThr   int
	pool        int
	callTimeout time.Duration
	dialTimeout time.Duration
	retries     int
	hedge       bool
	drain       time.Duration
}

func (c *config) register(fs *flag.FlagSet) {
	fs.StringVar(&c.addr, "addr", "127.0.0.1:7466", "listen address")
	fs.StringVar(&c.routes, "routes", "", "route table JSON file (required; SIGHUP reloads it)")
	fs.IntVar(&c.maxInflight, "max-inflight", 0, "admitted relays across all connections (0 = 1024 default, negative = unbounded)")
	fs.DurationVar(&c.admitWait, "admit-wait", 0, "how long a relay may wait for admission before being shed (0 = 5ms default)")
	fs.IntVar(&c.maxPayload, "max-payload", 0, "per-payload byte budget (0 = 8 MiB default, negative = unbounded)")
	fs.IntVar(&c.maxBody, "max-body", 0, "orb frame body limit in bytes (0 = 16 MiB default)")
	fs.IntVar(&c.maxPerConn, "max-per-conn", 0, "concurrent relays per client connection (0 = 1024 default, negative = unbounded)")
	fs.IntVar(&c.streamThr, "stream-threshold", 0, "request bytes above which stream-opened relays forward chunk-by-chunk (0 = 1 MiB default, negative = always buffer)")
	fs.IntVar(&c.pool, "pool", 0, "upstream connections per address (0 = 4 default)")
	fs.DurationVar(&c.callTimeout, "call-timeout", 0, "per-upstream-call deadline (0 = resil default)")
	fs.DurationVar(&c.dialTimeout, "dial-timeout", 0, "upstream dial deadline (0 = resil default)")
	fs.IntVar(&c.retries, "retries", 0, "upstream attempts per relay (0 = resil default)")
	fs.BoolVar(&c.hedge, "hedge", false, "launch a hedged upstream attempt at the p95 latency")
	fs.DurationVar(&c.drain, "drain", 10*time.Second, "graceful shutdown drain window")
}

// start builds the gateway from cfg, loads the route table, and starts
// serving. It is the whole daemon minus flag parsing and signal
// handling, so tests can run it in-process on an ephemeral port.
func start(cfg config) (*orb.Server, *gateway.Gateway, error) {
	routesPath := cfg.routes
	rcfg, err := gateway.LoadConfig(routesPath)
	if err != nil {
		return nil, nil, err
	}
	g := gateway.New(gateway.Options{
		MaxInFlight:     cfg.maxInflight,
		AdmitWait:       cfg.admitWait,
		MaxPayload:      cfg.maxPayload,
		StreamThreshold: cfg.streamThr,
		Upstream: resil.Options{
			PoolSize:    cfg.pool,
			CallTimeout: cfg.callTimeout,
			DialTimeout: cfg.dialTimeout,
			MaxAttempts: cfg.retries,
			Hedge:       cfg.hedge,
		},
	})
	g.SetReloader(func() (*gateway.Config, error) { return gateway.LoadConfig(routesPath) })
	if err := g.SetConfig(rcfg); err != nil {
		_ = g.Close()
		return nil, nil, err
	}
	srv, err := orb.NewServer(cfg.addr, serve.OrbOptions(cfg.maxBody, 0, cfg.maxPerConn)...)
	if err != nil {
		_ = g.Close()
		return nil, nil, err
	}
	g.Serve(srv)
	return srv, g, nil
}

func main() {
	fs := flag.NewFlagSet("mbirdgw", flag.ExitOnError)
	var cfg config
	cfg.register(fs)
	_ = fs.Parse(os.Args[1:])
	if cfg.routes == "" {
		fmt.Fprintln(os.Stderr, "mbirdgw: -routes is required")
		os.Exit(2)
	}

	srv, g, err := start(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mbirdgw:", err)
		os.Exit(1)
	}
	fmt.Printf("mbirdgw: serving on %s (%d routes)\n", srv.Addr(), g.Health().Routes)

	drainErr := serve.Run("mbirdgw", srv, cfg.drain, func() {
		if n, err := g.Reload(); err != nil {
			fmt.Fprintln(os.Stderr, "mbirdgw: reload failed, keeping current routes:", err)
		} else {
			fmt.Printf("mbirdgw: reloaded %d routes\n", n)
		}
	})
	_ = g.Close()
	if drainErr != nil {
		fmt.Fprintln(os.Stderr, "mbirdgw: drain incomplete:", drainErr)
		os.Exit(1)
	}
}
