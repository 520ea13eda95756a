package serve

import (
	"context"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/orb"
)

// OrbOptions assembles the orb server options a daemon starts with from
// its limit flags, where 0 keeps the orb default. Every orb server
// recycles a request's body and context when its handler returns; no
// daemon handler keeps either (detached work and hedges take a copy).
func OrbOptions(maxBody, maxKey, maxPerConn int) []orb.Option {
	var opts []orb.Option
	if maxBody > 0 {
		opts = append(opts, orb.WithMaxBody(maxBody))
	}
	if maxKey > 0 {
		opts = append(opts, orb.WithMaxKey(maxKey))
	}
	if maxPerConn != 0 {
		opts = append(opts, orb.WithMaxPerConn(maxPerConn))
	}
	return opts
}

// Run blocks until SIGINT or SIGTERM, then drains srv: the listener
// closes, in-flight requests get up to drain to finish, and remaining
// connections are force-closed. It returns the drain error, if any. A
// non-nil reload is called on each SIGHUP, and the daemon keeps serving.
func Run(name string, srv *orb.Server, drain time.Duration, reload func()) error {
	sig := make(chan os.Signal, 1)
	sigs := []os.Signal{syscall.SIGINT, syscall.SIGTERM}
	if reload != nil {
		sigs = append(sigs, syscall.SIGHUP)
	}
	signal.Notify(sig, sigs...)
	s := <-sig
	for ; s == syscall.SIGHUP; s = <-sig {
		reload()
	}
	fmt.Printf("%s: %v, draining for up to %v\n", name, s, drain)
	ctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	return srv.Shutdown(ctx)
}
