package gateway

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/orb"
	"repro/internal/value"
	"repro/internal/wire"
)

// BenchmarkGatewayVsDirect measures the gateway's per-call overhead on
// one machine loop: a client invoking an echo upstream directly, then
// through the gateway with no transcoding (passthrough), with a fused
// fast-tier lane pair, and with a semantic-hook lane forced onto the
// tree tier. The direct case is the floor; the deltas are what the
// interop hop costs (bench/ reads the same ladder as gateway.pass_call_ns
// and gateway.second_hop_ns on relay_small).
func BenchmarkGatewayVsDirect(b *testing.B) {
	newUpstream := func(b *testing.B, key string) *orb.Server {
		b.Helper()
		s, err := orb.NewServer("127.0.0.1:0", orb.WithBufPooling())
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { _ = s.Close() })
		s.Register(key, func(ctx context.Context, op uint32, body []byte) ([]byte, error) { return body, nil })
		return s
	}
	dial := func(b *testing.B, addr string) *orb.Client {
		b.Helper()
		c, err := orb.Dial(addr)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { _ = c.Close() })
		return c
	}
	lowerB := func(b *testing.B, d DeclConfig) []byte {
		b.Helper()
		g := New(Options{})
		mt, err := g.Lower(&d)
		if err != nil {
			b.Fatal(err)
		}
		payload, err := wire.Marshal(mt, value.NewRecord(value.Real{V: 1.5}, value.NewInt(7)))
		if err != nil {
			b.Fatal(err)
		}
		return payload
	}
	run := func(b *testing.B, c *orb.Client, key string, payload []byte) {
		b.Helper()
		b.SetBytes(int64(len(payload)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.Invoke(key, 1, payload); err != nil {
				b.Fatal(err)
			}
		}
	}

	mixPayload := lowerB(b, mixDecl())

	b.Run("direct", func(b *testing.B) {
		up := newUpstream(b, "svc")
		run(b, dial(b, up.Addr()), "svc", mixPayload)
	})

	b.Run("passthrough", func(b *testing.B) {
		up := newUpstream(b, "svc")
		cfg := &Config{Upstream: up.Addr(), Routes: []RouteConfig{{Key: "svc", Op: 1}}}
		g := New(Options{})
		b.Cleanup(func() { _ = g.Close() })
		if err := g.SetConfig(cfg); err != nil {
			b.Fatal(err)
		}
		srv, err := orb.NewServer("127.0.0.1:0", orb.WithBufPooling())
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { _ = srv.Close() })
		g.Serve(srv)
		run(b, dial(b, srv.Addr()), "svc", mixPayload)
	})

	b.Run("fast-tier", func(b *testing.B) {
		up := newUpstream(b, "svc")
		cfg := &Config{Upstream: up.Addr(), Routes: []RouteConfig{{
			Key: "svc", Op: 1,
			Request: &LaneConfig{From: mixDecl(), To: pairDecl()},
			Reply:   &LaneConfig{From: pairDecl(), To: mixDecl()},
		}}}
		g := New(Options{})
		b.Cleanup(func() { _ = g.Close() })
		if err := g.SetConfig(cfg); err != nil {
			b.Fatal(err)
		}
		srv, err := orb.NewServer("127.0.0.1:0", orb.WithBufPooling())
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { _ = srv.Close() })
		g.Serve(srv)
		run(b, dial(b, srv.Addr()), "svc", mixPayload)
		if r := g.Stats().Routes[0]; r.FastTier == 0 || r.TreeTier != 0 {
			b.Fatalf("fast=%d tree=%d, benchmark did not stay on the fast tier", r.FastTier, r.TreeTier)
		}
	})

	b.Run("tree-tier", func(b *testing.B) {
		sess := core.NewSession()
		sess.RegisterSemantic("SlopeLine", "SegLine", "slope→seg", func(v value.Value) (value.Value, error) {
			rec, ok := v.(value.Record)
			if !ok || len(rec.Fields) != 2 {
				return nil, fmt.Errorf("want slope/intercept record, got %s", v)
			}
			m := rec.Fields[0].(value.Real).V
			c := rec.Fields[1].(value.Real).V
			pt := func(x float64) value.Value {
				return value.NewRecord(value.Real{V: x}, value.Real{V: m*x + c})
			}
			return value.NewRecord(pt(0), pt(1)), nil
		})
		slope := DeclConfig{Lang: "java", Source: "class SlopeLine { double slope; double intercept; }", Decl: "SlopeLine"}
		seg := DeclConfig{
			Lang: "java",
			Source: `class Pt { double x; double y; }
				class SegLine { Pt a; Pt b; }`,
			Script: "annotate SegLine.a nonnull noalias\nannotate SegLine.b nonnull noalias\n",
			Decl:   "SegLine",
		}
		up := newUpstream(b, "lines")
		cfg := &Config{Upstream: up.Addr(), Routes: []RouteConfig{{
			Key: "lines", Op: 1,
			Request: &LaneConfig{From: slope, To: seg},
		}}}
		g := New(Options{session: sess})
		b.Cleanup(func() { _ = g.Close() })
		if err := g.SetConfig(cfg); err != nil {
			b.Fatal(err)
		}
		srv, err := orb.NewServer("127.0.0.1:0", orb.WithBufPooling())
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { _ = srv.Close() })
		g.Serve(srv)

		sg := New(Options{})
		mtA, err := sg.Lower(&slope)
		if err != nil {
			b.Fatal(err)
		}
		payload, err := wire.Marshal(mtA, value.NewRecord(value.Real{V: 2}, value.Real{V: -1}))
		if err != nil {
			b.Fatal(err)
		}
		run(b, dial(b, srv.Addr()), "lines", payload)
		if r := g.Stats().Routes[0]; r.TreeTier == 0 {
			b.Fatal("benchmark did not exercise the tree tier")
		}
	})
}
