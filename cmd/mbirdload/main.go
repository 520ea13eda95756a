// Command mbirdload is the load smoke gate: it drives a mockingbird
// broker daemon (mbirdd) or interop gateway (mbirdgw) with open- or
// closed-loop load across the execution tiers and exits non-zero if any
// operation failed. The throughput and percentiles it prints describe
// the run for whoever is watching it; no file records them — every
// number the repository quotes comes from bench/ (bash bench/run.sh).
//
// Closed-loop runs (-mode closed) hold a fixed worker count issuing
// back-to-back calls and answer "how fast can it go"; open-loop runs
// (-mode open -rate N) issue calls on a fixed arrival schedule and
// answer "how does it behave at rate N" without coordinated omission —
// each call's latency is measured from its scheduled send time, so
// queueing behind a server stall is charged to the percentiles.
//
// Tiers:
//
//	compare   broker cached compare (verdict-cache hit path)
//	convert   broker fast-tier convert (fused wire-to-wire transcode)
//	batch     broker batch convert (-batch items per request)
//	gw-pass   gateway passthrough relay (no lanes)
//	gw-fused  gateway relay with fused request+reply lanes
//	gw-tree   gateway relay with a semantic-hook lane (tree engine)
//	gw-stream gateway streaming relay: stream-opened calls carrying a
//	          sequence payload over the chunk-by-chunk lane
//
// With no -addr, mbirdload runs self-contained: it starts an in-process
// daemon (broker tiers) or gateway + echo upstream (gw-* tiers) on a
// loopback listener and drives that. With -addr it drives an external
// daemon; gw-* tiers then expect the gateway's route at -key/-op to
// accept the harness's fixture payloads (see README).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/broker"
	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/loadgen"
	"repro/internal/orb"
	"repro/internal/value"
	"repro/internal/wire"
)

type config struct {
	tier     string
	mode     string
	conc     int
	rate     float64
	duration time.Duration
	warmup   time.Duration
	fields   int
	batch    int
	addr     string
	key      string
	op       uint
}

func parseFlags(name string, args []string, errw io.Writer) (config, error) {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(errw)
	var cfg config
	fs.StringVar(&cfg.tier, "tier", "", "workload tier: compare, convert, batch, gw-pass, gw-fused, gw-tree, gw-stream")
	fs.StringVar(&cfg.mode, "mode", "closed", "loop shape: closed (throughput ceiling) or open (fixed arrival rate)")
	fs.IntVar(&cfg.conc, "c", 8, "workers (closed: multiprogramming level; open: max outstanding)")
	fs.Float64Var(&cfg.rate, "rate", 0, "open-loop arrival rate in calls/s (required for -mode open)")
	fs.DurationVar(&cfg.duration, "duration", 3*time.Second, "measured run length")
	fs.DurationVar(&cfg.warmup, "warmup", 500*time.Millisecond, "unrecorded warmup before measuring")
	fs.IntVar(&cfg.fields, "fields", 0, "synthetic struct width for broker tiers (0 = 64) and gw-fused lanes (0 = small fixture); sequence length for gw-stream (0 = 8192 elements)")
	fs.IntVar(&cfg.batch, "batch", 16, "items per request for -tier batch")
	fs.StringVar(&cfg.addr, "addr", "", "external daemon address (empty = start an in-process target)")
	fs.StringVar(&cfg.key, "key", "svc", "object key for gw-* tiers against an external gateway")
	fs.UintVar(&cfg.op, "op", 1, "operation number for gw-* tiers against an external gateway")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if cfg.tier == "" {
		fs.Usage()
		return cfg, fmt.Errorf("missing required -tier")
	}
	return cfg, nil
}

// target is one ready-to-drive workload: the operation under load and
// its teardown.
type target struct {
	op    loadgen.Op
	close func()
}

// synthSrc builds a permuted-field-name C struct pair wide enough to
// give the cold path real work; the pair is structurally equivalent, so
// compares cache and converts fuse.
func synthSrc(fields int) (a, b string) {
	var sa, sb strings.Builder
	kinds := []string{"int", "float", "short", "double"}
	sa.WriteString("typedef struct {\n")
	sb.WriteString("typedef struct {\n")
	for i := 0; i < fields; i++ {
		fmt.Fprintf(&sa, "  %s f%d;\n", kinds[i%len(kinds)], i)
		fmt.Fprintf(&sb, "  %s g%d;\n", kinds[i%len(kinds)], i)
	}
	sa.WriteString("} big;\n")
	sb.WriteString("} big;\n")
	return sa.String(), sb.String()
}

// synthValue builds a value matching synthSrc's field cycle.
func synthValue(fields int) value.Value {
	vs := make([]value.Value, fields)
	for i := range vs {
		switch i % 4 {
		case 0, 2: // int, short
			vs[i] = value.NewInt(int64(i % 100))
		default: // float, double
			vs[i] = value.Real{V: float64(i) + 0.25}
		}
	}
	return value.NewRecord(vs...)
}

// lowerPayload lowers a declaration locally and marshals v against it.
func lowerPayload(d gateway.DeclConfig, v value.Value) ([]byte, error) {
	g := gateway.New(gateway.Options{})
	defer g.Close()
	mt, err := g.Lower(&d)
	if err != nil {
		return nil, err
	}
	return wire.Marshal(mt, v)
}

// Small fixture pair that fuses wire-to-wire (permuted but equivalent).
func mixDecl() gateway.DeclConfig {
	return gateway.DeclConfig{Lang: "c", Source: "typedef struct { float r; int n; } mix;", Decl: "mix"}
}
func pairDecl() gateway.DeclConfig {
	return gateway.DeclConfig{Lang: "c", Source: "typedef struct { int count; float ratio; } pair;", Decl: "pair"}
}

// setupBroker prepares the compare/convert/batch tiers: an external
// daemon at cfg.addr or an in-process one, universes loaded and the
// pair warmed, one orb connection per worker.
func setupBroker(cfg config) (*target, error) {
	fields := cfg.fields
	if fields <= 0 {
		fields = 64
	}
	srcA, srcB := synthSrc(fields)

	addr := cfg.addr
	t := &target{close: func() {}}
	if addr == "" {
		srv, err := orb.NewServer("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		broker.Serve(srv, broker.New(core.NewSession(), broker.Options{}))
		addr = srv.Addr()
		t.close = func() { _ = srv.Close() }
	}

	admin, err := broker.DialClient(addr)
	if err != nil {
		t.close()
		return nil, err
	}
	closers := []func(){t.close, func() { _ = admin.Close() }}
	t.close = func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}

	if _, _, err := admin.Load("a", "c", "ilp32", srcA, ""); err != nil {
		t.close()
		return nil, fmt.Errorf("load universe a: %w", err)
	}
	if _, _, err := admin.Load("b", "c", "ilp32", srcB, ""); err != nil {
		t.close()
		return nil, fmt.Errorf("load universe b: %w", err)
	}
	// Warm the verdict cache so the measured loop is the cached tier.
	if _, err := admin.CompareContext(context.Background(), "a", "big", "b", "big"); err != nil {
		t.close()
		return nil, fmt.Errorf("warm compare: %w", err)
	}

	clients := make([]*broker.Client, cfg.conc)
	for i := range clients {
		c, err := broker.DialClient(addr)
		if err != nil {
			t.close()
			return nil, err
		}
		clients[i] = c
		closers = append(closers, func() { _ = c.Close() })
	}

	switch cfg.tier {
	case "compare":
		t.op = func(ctx context.Context, w int) error {
			_, err := clients[w].CompareContext(ctx, "a", "big", "b", "big")
			return err
		}
	case "convert", "batch":
		payload, err := lowerPayload(
			gateway.DeclConfig{Lang: "c", Source: srcA, Decl: "big"}, synthValue(fields))
		if err != nil {
			t.close()
			return nil, fmt.Errorf("build payload: %w", err)
		}
		if cfg.tier == "convert" {
			t.op = func(ctx context.Context, w int) error {
				_, err := clients[w].ConvertRawContext(ctx, "a", "big", "b", "big", payload)
				return err
			}
		} else {
			n := cfg.batch
			if n <= 0 {
				n = 1
			}
			payloads := make([][]byte, n)
			for i := range payloads {
				payloads[i] = payload
			}
			t.op = func(ctx context.Context, w int) error {
				_, err := clients[w].ConvertBatchRawContext(ctx, "a", "big", "b", "big", payloads)
				return err
			}
		}
	default:
		t.close()
		return nil, fmt.Errorf("unknown broker tier %q", cfg.tier)
	}
	return t, nil
}

// setupGateway prepares the gw-pass/gw-fused/gw-tree tiers. Without
// -addr it starts an echo upstream and a gateway routing to it; the
// route shape follows the tier. With -addr it drives the external
// gateway's (-key, -op) route with the same fixture payload the
// self-contained shape uses.
func setupGateway(cfg config) (*target, error) {
	key, op := cfg.key, uint32(cfg.op)

	// Fixture payload + lane config per tier.
	var (
		payload []byte
		err     error
		routeFn func(upstream string) (*gateway.Config, *core.Session)
		gwOpts  gateway.Options
	)
	switch cfg.tier {
	case "gw-pass":
		payload, err = lowerPayload(mixDecl(), value.NewRecord(value.Real{V: 1.5}, value.NewInt(7)))
		routeFn = func(up string) (*gateway.Config, *core.Session) {
			return &gateway.Config{Upstream: up, Routes: []gateway.RouteConfig{{Key: key, Op: op}}}, nil
		}
	case "gw-fused":
		from, to := mixDecl(), pairDecl()
		v := value.Value(value.NewRecord(value.Real{V: 1.5}, value.NewInt(7)))
		if cfg.fields > 0 {
			srcA, srcB := synthSrc(cfg.fields)
			from = gateway.DeclConfig{Lang: "c", Source: srcA, Decl: "big"}
			to = gateway.DeclConfig{Lang: "c", Source: srcB, Decl: "big"}
			v = synthValue(cfg.fields)
		}
		payload, err = lowerPayload(from, v)
		routeFn = func(up string) (*gateway.Config, *core.Session) {
			return &gateway.Config{Upstream: up, Routes: []gateway.RouteConfig{{
				Key: key, Op: op,
				Request: &gateway.LaneConfig{From: from, To: to},
				Reply:   &gateway.LaneConfig{From: to, To: from},
			}}}, nil
		}
	case "gw-tree":
		slope := gateway.DeclConfig{Lang: "java", Source: "class SlopeLine { double slope; double intercept; }", Decl: "SlopeLine"}
		seg := gateway.DeclConfig{
			Lang: "java",
			Source: `class Pt { double x; double y; }
				class SegLine { Pt a; Pt b; }`,
			Script: "annotate SegLine.a nonnull noalias\nannotate SegLine.b nonnull noalias\n",
			Decl:   "SegLine",
		}
		payload, err = lowerPayload(slope, value.NewRecord(value.Real{V: 2}, value.Real{V: -1}))
		routeFn = func(up string) (*gateway.Config, *core.Session) {
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
			return &gateway.Config{Upstream: up, Routes: []gateway.RouteConfig{{
				Key: key, Op: op,
				Request: &gateway.LaneConfig{From: slope, To: seg},
			}}}, sess
		}
	case "gw-stream":
		// Sequence-of-records pair with permuted fields: fuses with a
		// streamable list root, so over-threshold stream-opened calls
		// relay chunk-by-chunk through the request lane.
		from := gateway.DeclConfig{Lang: "idl",
			Source: "struct Rec { long n; double x; };\ntypedef sequence<Rec> Batch;", Decl: "Batch"}
		to := gateway.DeclConfig{Lang: "idl",
			Source: "struct Rec { double x; long n; };\ntypedef sequence<Rec> Batch;", Decl: "Batch"}
		elems := cfg.fields
		if elems <= 0 {
			elems = 8192
		}
		vs := make([]value.Value, elems)
		for i := range vs {
			vs[i] = value.NewRecord(value.NewInt(int64(i)), value.Real{V: float64(i) + 0.5})
		}
		payload, err = lowerPayload(from, value.FromSlice(vs))
		// Keep the self-contained threshold under the fixture payload so
		// the measured loop is the streaming lane, not the buffered divert.
		gwOpts.StreamThreshold = 64 << 10
		routeFn = func(up string) (*gateway.Config, *core.Session) {
			return &gateway.Config{Upstream: up, Routes: []gateway.RouteConfig{{
				Key: key, Op: op,
				Request: &gateway.LaneConfig{From: from, To: to},
			}}}, nil
		}
	default:
		return nil, fmt.Errorf("unknown gateway tier %q", cfg.tier)
	}
	if err != nil {
		return nil, fmt.Errorf("build payload: %w", err)
	}

	addr := cfg.addr
	t := &target{close: func() {}}
	var closers []func()
	if addr == "" {
		up, err := orb.NewServer("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		closers = append(closers, func() { _ = up.Close() })
		up.Register(key, func(ctx context.Context, op uint32, body []byte) ([]byte, error) { return body, nil })
		up.RegisterStream(key, func(ctx context.Context, op uint32, in *orb.StreamReader, out *orb.StreamWriter) error {
			buf := make([]byte, 64<<10)
			for {
				n, err := in.Read(buf)
				if n > 0 {
					if _, werr := out.Write(buf[:n]); werr != nil {
						return werr
					}
				}
				if err == io.EOF {
					return nil
				}
				if err != nil {
					return err
				}
			}
		})

		gwCfg, sess := routeFn(up.Addr())
		gwOpts.Session = sess
		g := gateway.New(gwOpts)
		closers = append(closers, func() { _ = g.Close() })
		if err := g.SetConfig(gwCfg); err != nil {
			for _, c := range closers {
				c()
			}
			return nil, err
		}
		srv, err := orb.NewServer("127.0.0.1:0")
		if err != nil {
			for _, c := range closers {
				c()
			}
			return nil, err
		}
		closers = append(closers, func() { _ = srv.Close() })
		g.Serve(srv)
		addr = srv.Addr()
	}
	t.close = func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}

	clients := make([]*orb.Client, cfg.conc)
	for i := range clients {
		c, err := orb.Dial(addr)
		if err != nil {
			t.close()
			return nil, err
		}
		clients[i] = c
		closers = append(closers, func() { _ = c.Close() })
	}
	if cfg.tier == "gw-stream" {
		bufs := make([][]byte, cfg.conc)
		for i := range bufs {
			bufs[i] = make([]byte, 64<<10)
		}
		const chunk = 32 << 10
		t.op = func(ctx context.Context, w int) error {
			sc, err := clients[w].OpenStream(ctx, key, op)
			if err != nil {
				return err
			}
			defer func() { _ = sc.Close() }()
			for off := 0; off < len(payload); off += chunk {
				end := off + chunk
				if end > len(payload) {
					end = len(payload)
				}
				if _, err := sc.Write(payload[off:end]); err != nil {
					return err
				}
			}
			if err := sc.CloseSend(); err != nil {
				return err
			}
			for {
				_, err := sc.Read(bufs[w])
				if err == io.EOF {
					return nil
				}
				if err != nil {
					return err
				}
			}
		}
		return t, nil
	}
	t.op = func(ctx context.Context, w int) error {
		_, err := clients[w].InvokeContext(ctx, key, op, payload)
		return err
	}
	return t, nil
}

func run(cfg config, out io.Writer) error {
	var (
		t   *target
		err error
	)
	switch cfg.tier {
	case "compare", "convert", "batch":
		t, err = setupBroker(cfg)
	case "gw-pass", "gw-fused", "gw-tree", "gw-stream":
		t, err = setupGateway(cfg)
	default:
		return fmt.Errorf("unknown tier %q (want compare, convert, batch, gw-pass, gw-fused, gw-tree, gw-stream)", cfg.tier)
	}
	if err != nil {
		return err
	}
	defer t.close()

	res, err := loadgen.Run(context.Background(), loadgen.Options{
		Mode:        loadgen.Mode(cfg.mode),
		Concurrency: cfg.conc,
		Rate:        cfg.rate,
		Duration:    cfg.duration,
		Warmup:      cfg.warmup,
	}, t.op)
	if err != nil {
		return err
	}
	if res.Ops == 0 {
		return fmt.Errorf("no operations completed (last error: %v)", res.LastErr)
	}

	targetName := cfg.addr
	if targetName == "" {
		targetName = "self"
	}
	fmt.Fprintf(out, "tier %s against %s, %s loop, %d workers", cfg.tier, targetName, res.Mode, res.Concurrency)
	if res.TargetRate > 0 {
		fmt.Fprintf(out, ", %.0f/s offered", res.TargetRate)
	}
	fmt.Fprintf(out, ", %.1fs\n", res.Elapsed.Seconds())
	fmt.Fprintf(out, "throughput: %.0f/s (%d ops, %d errors)\n", res.Throughput, res.Ops, res.Errors)
	fmt.Fprintf(out, "latency:    %s\n", res.Hist.String())
	if res.Errors > 0 {
		return fmt.Errorf("%d of %d operations failed (last: %v)", res.Errors, res.Ops, res.LastErr)
	}
	return nil
}

func main() {
	cfg, err := parseFlags("mbirdload", os.Args[1:], os.Stderr)
	if err != nil {
		os.Exit(2)
	}
	if err := run(cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mbirdload:", err)
		os.Exit(1)
	}
}
