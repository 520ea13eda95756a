package main

import (
	"fmt"

	"repro/internal/cmem"
	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/mtype"
	"repro/internal/orb"
	"repro/internal/plan"
	"repro/internal/transcode"
)

// closers tears a workload's servers and clients down in reverse order.
type closers []func()

func (c *closers) add(fn func()) { *c = append(*c, fn) }
func (c *closers) close() {
	for i := len(*c) - 1; i >= 0; i-- {
		(*c)[i]()
	}
}

// newServer starts an orb server on loopback the way the daemons do.
func newServer(cl *closers) (*orb.Server, error) {
	srv, err := orb.NewServer("127.0.0.1:0", orb.WithBufPooling())
	if err != nil {
		return nil, err
	}
	cl.add(func() { _ = srv.Close() })
	return srv, nil
}

// startGateway starts an in-process gateway with mbirdgw's configuration
// (default Options, pooled orb buffers) serving cfg on loopback.
func startGateway(cl *closers, cfg *gateway.Config) (*gateway.Gateway, string, error) {
	g := gateway.New(gateway.Options{})
	cl.add(func() { _ = g.Close() })
	if err := g.SetConfig(cfg); err != nil {
		return nil, "", err
	}
	srv, err := newServer(cl)
	if err != nil {
		return nil, "", err
	}
	g.Serve(srv)
	return g, srv.Addr(), nil
}

func dial(cl *closers, addr string) (*orb.Client, error) {
	c, err := orb.Dial(addr)
	if err != nil {
		return nil, err
	}
	cl.add(func() { _ = c.Close() })
	return c, nil
}

// loadDecl loads a gateway declaration into a session under the given
// universe name, for the benchmark's own lowering and oracle.
func loadDecl(s *core.Session, universe string, d gateway.DeclConfig) error {
	var err error
	switch d.Lang {
	case "c":
		err = s.LoadC(universe, d.Source, cmem.ILP32)
	case "java":
		err = s.LoadJava(universe, d.Source)
	case "idl":
		err = s.LoadIDL(universe, d.Source)
	default:
		err = fmt.Errorf("bench: no loader for language %q", d.Lang)
	}
	if err == nil && d.Script != "" {
		_, err = s.Annotate(universe, d.Script)
	}
	return err
}

// pair is a declaration pair compiled by the benchmark itself, outside
// any daemon: the rungs below the network run on it.
type pair struct {
	mtA, mtB *mtype.Type
	plan     *plan.Plan
	verdict  *core.Verdict
}

func compilePair(s *core.Session, from, to gateway.DeclConfig) (*pair, error) {
	ua, ub := "from:"+from.Decl, "to:"+to.Decl
	for _, l := range []struct {
		u string
		d gateway.DeclConfig
	}{{ua, from}, {ub, to}} {
		if s.Universe(l.u) == nil {
			if err := loadDecl(s, l.u, l.d); err != nil {
				return nil, err
			}
		}
	}
	p := &pair{}
	var err error
	if p.mtA, err = s.Mtype(ua, from.Decl); err != nil {
		return nil, err
	}
	if p.mtB, err = s.Mtype(ub, to.Decl); err != nil {
		return nil, err
	}
	if p.verdict, err = s.Compare(ua, from.Decl, ub, to.Decl); err != nil {
		return nil, err
	}
	if p.verdict.Match == nil {
		return nil, fmt.Errorf("%s and %s do not match: %s", from.Decl, to.Decl, p.verdict.Explain)
	}
	p.plan, err = plan.Build(p.verdict.Match)
	return p, err
}

func (p *pair) transcoder() (*transcode.Transcoder, error) {
	return transcode.Compile(p.plan, p.mtA, p.mtB)
}
