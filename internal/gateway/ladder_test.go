package gateway

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"regexp"
	"strings"
	"testing"

	"repro/internal/broker"
	"repro/internal/core"
	"repro/internal/limits"
	"repro/internal/orb"
	"repro/internal/stream"
	"repro/internal/value"
	"repro/internal/wire"
)

var updateLadder = flag.Bool("update", false, "rewrite testdata/golden/ladder.txt from this build")

// The ladder's pairs. fixed, list and doc fuse (a fixed-layout record, a
// streamable sequence, a record root holding a sequence); hooked needs
// the tree rung; the last two never convert in the direction asked.
const (
	docASrc = batchASrc + "\nstruct Doc { long id; Batch items; };"
	docBSrc = batchBSrc + "\nstruct Doc { Batch items; long id; };"
	oddSrc  = "typedef struct { float only; } odd;"
)

type ladderPair struct {
	name     string
	from, to DeclConfig
	valid    []byte // a valid payload of from, over 4 bytes and under 4 KiB
	gwOver   []byte // over the gateways' 4 KiB payload budget, valid where the pair has a size to vary
}

func slopeSegHook(v value.Value) (value.Value, error) {
	rec, ok := v.(value.Record)
	if !ok || len(rec.Fields) != 2 {
		return nil, fmt.Errorf("want slope/intercept record, got %s", v)
	}
	m, c := rec.Fields[0].(value.Real).V, rec.Fields[1].(value.Real).V
	pt := func(x float64) value.Value { return value.NewRecord(value.Real{V: x}, value.Real{V: m*x + c}) }
	return value.NewRecord(pt(0), pt(1)), nil
}

func ladderSession() *core.Session {
	s := core.NewSession()
	s.RegisterSemantic("SlopeLine", "SegLine", "slope→seg", slopeSegHook)
	return s
}

func ladderPairs(t *testing.T) []ladderPair {
	marshal := func(d DeclConfig, v value.Value) []byte {
		out, err := wire.Marshal(lowerDecl(t, d), v)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	recs := func(n int) value.Value {
		vs := make([]value.Value, n)
		for i := range vs {
			vs[i] = value.NewRecord(value.NewInt(int64(i)), value.Real{V: float64(i) + 0.5})
		}
		return value.FromSlice(vs)
	}
	junk := ladderJunk[:5<<10]
	docA := DeclConfig{Lang: "idl", Source: docASrc, Decl: "Doc"}
	docB := DeclConfig{Lang: "idl", Source: docBSrc, Decl: "Doc"}
	slope := DeclConfig{Lang: "java", Source: "class SlopeLine { double slope; double intercept; }", Decl: "SlopeLine"}
	seg := DeclConfig{
		Lang:   "java",
		Source: "class Pt { double x; double y; }\nclass SegLine { Pt a; Pt b; }",
		Script: "annotate SegLine.a nonnull noalias\nannotate SegLine.b nonnull noalias\n",
		Decl:   "SegLine",
	}
	narrow := DeclConfig{Lang: "c", Source: "typedef short narrow;", Decl: "narrow"}
	wide := DeclConfig{Lang: "c", Source: "typedef int wide;", Decl: "wide"}
	odd := DeclConfig{Lang: "c", Source: oddSrc, Decl: "odd"}
	mix := marshal(mixDecl(), value.NewRecord(value.Real{V: 1.5}, value.NewInt(7)))
	return []ladderPair{
		{"fixed", mixDecl(), pairDecl(), mix, junk},
		{"list", batchADecl(), batchBDecl(), marshal(batchADecl(), recs(100)), marshal(batchADecl(), recs(400))},
		{"doc", docA, docB, marshal(docA, value.NewRecord(value.NewInt(9), recs(100))), marshal(docA, value.NewRecord(value.NewInt(9), recs(400)))},
		{"hooked", slope, seg, marshal(slope, value.NewRecord(value.Real{V: 2}, value.Real{V: -1})), junk},
		{"nomatch", mixDecl(), odd, mix, junk},
		{"subBA", wide, narrow, marshal(wide, value.NewInt(1)), junk},
	}
}

type ladderVariant struct {
	name string
	b    []byte
}

// variants are the payloads every entry point is offered, in order.
func (p ladderPair) variants(over []byte) []ladderVariant {
	return []ladderVariant{
		{"valid", p.valid},
		{"short", p.valid[:len(p.valid)-1]},
		{"trail", append(append([]byte(nil), p.valid...), 1)},
		{"over", over},
	}
}

// ladderJunk is over the broker's 16 MiB buffered-stream cap.
var ladderJunk = bytes.Repeat([]byte{0xee}, 17<<20)

// ladderScrub matches what differs from run to run in an error text: a
// listener's port, and how many bytes had arrived when a cap was crossed.
var ladderScrub = regexp.MustCompile(`127\.0\.0\.1:\d+|over \d+ bytes`)

// outcome renders what a call returned: the bytes (or their length and
// checksum), or the error text with the typed errors it still is.
func outcome(out []byte, err error) string {
	if err != nil {
		var is []string
		for _, s := range []struct {
			name string
			err  error
		}{{"TooLarge", stream.ErrTooLarge}, {"Budget", limits.ErrBudget}, {"Short", wire.ErrShort}} {
			if errors.Is(err, s.err) {
				is = append(is, s.name)
			}
		}
		var re *orb.RemoteError
		if errors.As(err, &re) {
			is = append(is, "Remote")
		}
		return fmt.Sprintf("err=%q is=%v", ladderScrub.ReplaceAllString(err.Error(), "<n>"), is)
	}
	if len(out) > 48 {
		return fmt.Sprintf("len=%d crc=%08x", len(out), crc32.ChecksumIEEE(out))
	}
	return fmt.Sprintf("out=%x", out)
}

// TestLadderTranscript pins what every way into the fused→tree ladder
// answers and counts, pair by pair and payload by payload: the broker's
// raw, batch and streamed converts (cold, then on peer-warmed entries)
// and the gateway's buffered relay and its stream handler under and over
// StreamThreshold. The golden was written at the commit before the ladder
// moved into core.Session.BuildTranscoder.
func TestLadderTranscript(t *testing.T) {
	pairs := ladderPairs(t)
	var log strings.Builder
	ladderBroker(t, &log, pairs)
	ladderGateway(t, &log, pairs)

	const path = "testdata/golden/ladder.txt"
	if *updateLadder {
		if err := os.WriteFile(path, []byte(log.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Split(log.String(), "\n")
	for i, w := range strings.Split(string(want), "\n") {
		if i >= len(got) || got[i] != w {
			g := "<missing>"
			if i < len(got) {
				g = got[i]
			}
			t.Errorf("line %d:\n got  %s\n want %s", i+1, g, w)
		}
	}
	if t.Failed() {
		t.Log("rerun with -update after naming the rows that moved in CHANGES.md")
	}
}

// ladderBroker runs the broker's three entry points over every pair,
// cold and then on a second broker whose entries a peer warmed.
func ladderBroker(t *testing.T, log *strings.Builder, pairs []ladderPair) {
	start := func() (*broker.Broker, *broker.Client) {
		b := broker.New(ladderSession(), broker.Options{})
		for _, p := range pairs {
			for _, d := range []DeclConfig{p.from, p.to} {
				if _, _, err := b.Load(d.universe(), d.Lang, d.Model, d.Source, d.Script); err != nil {
					t.Fatal(err)
				}
			}
		}
		srv, err := orb.NewServer("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = srv.Close() })
		broker.Serve(srv, b)
		c, err := broker.DialClient(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = c.Close() })
		return b, c
	}
	row := func(b *broker.Broker, name string, call func() ([]byte, error)) {
		s0 := b.Stats()
		out, err := call()
		s1 := b.Stats()
		fmt.Fprintf(log, "%-34s fast+%d tree+%d unsupported+%d warmhits+%d  %s\n", name,
			s1.FastConverts-s0.FastConverts, s1.TreeConverts-s0.TreeConverts,
			s1.XcodeUnsupported-s0.XcodeUnsupported, s1.WarmHits-s0.WarmHits, outcome(out, err))
	}
	entries := func(b *broker.Broker, c *broker.Client, tag string, p ladderPair, vname string, payload []byte) {
		ua, da, ub, db := p.from.universe(), p.from.Decl, p.to.universe(), p.to.Decl
		row(b, fmt.Sprintf("%s raw    %s/%s", tag, p.name, vname), func() ([]byte, error) {
			return b.ConvertRaw(ua, da, ub, db, payload)
		})
		row(b, fmt.Sprintf("%s batch  %s/%s", tag, p.name, vname), func() ([]byte, error) {
			items := [][]byte{p.valid, payload}
			if vname == "over" {
				items = make([][]byte, broker.MaxBatchItems+1)
				for i := range items {
					items[i] = p.valid
				}
			}
			outs, err := b.ConvertRawBatch(ua, da, ub, db, items)
			return bytes.Join(outs, []byte{0xff}), err
		})
		row(b, fmt.Sprintf("%s stream %s/%s", tag, p.name, vname), func() ([]byte, error) {
			var out bytes.Buffer
			_, err := c.ConvertStreamContext(context.Background(), ua, da, ub, db, bytes.NewReader(payload), &out)
			return out.Bytes(), err
		})
	}

	b, c := start()
	for _, p := range pairs {
		for _, v := range p.variants(ladderJunk) {
			entries(b, c, "cold", p, v.name, v.b)
		}
	}
	// The same pairs on entries a peer warmed: what counts as a warm hit.
	b, c = start()
	for _, p := range pairs {
		ua, da, ub, db := p.from.universe(), p.from.Decl, p.to.universe(), p.to.Decl
		if err := b.WarmTranscoder(ua, da, ub, db); err != nil {
			t.Fatal(err)
		}
		if err := b.WarmConverter(ua, da, ub, db); err != nil {
			t.Fatal(err)
		}
		for _, v := range p.variants(nil)[:2] {
			entries(b, c, "warm", p, v.name, v.b)
		}
	}
}

// ladderGateway routes every pair as a request lane (and the hooked pair
// once more as a reply lane) through two gateways that differ only in
// StreamThreshold: every payload is under one's and over the other's.
func ladderGateway(t *testing.T, log *strings.Builder, pairs []ladderPair) {
	up, err := orb.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = up.Close() })
	up.Register("svc", func(_ context.Context, _ uint32, body []byte) ([]byte, error) { return body, nil })
	up.RegisterStream("svc", func(_ context.Context, _ uint32, in *orb.StreamReader, out *orb.StreamWriter) error {
		_, err := io.Copy(out, in)
		return err
	})

	cfg := &Config{Upstream: up.Addr()}
	for i, p := range pairs {
		rc := RouteConfig{Name: p.name, Key: "svc", Op: uint32(i + 1), Request: &LaneConfig{From: p.from, To: p.to}}
		g := New(Options{session: ladderSession()})
		err := g.SetConfig(&Config{Upstream: up.Addr(), Routes: []RouteConfig{rc}})
		st := g.Stats()
		fmt.Fprintf(log, "gw setconfig %-8s lane_compiles=%d lane_unsupported=%d  %s\n", p.name, st.LaneCompiles, st.LaneUnsupported, outcome(nil, err))
		_ = g.Close()
		if err == nil {
			cfg.Routes = append(cfg.Routes, rc)
		}
	}
	hooked := pairs[3]
	cfg.Routes = append(cfg.Routes, RouteConfig{Name: "reply-hooked", Key: "svc", Op: 99, Reply: &LaneConfig{From: hooked.from, To: hooked.to}})

	const maxPayload = 4 << 10
	type gwEnd struct {
		g *Gateway
		c *orb.Client
	}
	var ends [2]gwEnd // [0]: every payload under StreamThreshold; [1]: every one over
	for i, threshold := range []int{0, 4} {
		g, srv := startGateway(t, cfg, Options{session: ladderSession(), MaxPayload: maxPayload, StreamThreshold: threshold})
		ends[i] = gwEnd{g, dialOrb(t, srv.Addr())}
	}
	row := func(e gwEnd, route, name string, call func() ([]byte, error)) {
		find := func() RouteStats {
			for _, r := range e.g.Stats().Routes {
				if r.Name == route {
					return r
				}
			}
			t.Fatalf("no route %s", route)
			return RouteStats{}
		}
		s0 := find()
		out, err := call()
		s1 := find()
		fmt.Fprintf(log, "%-34s fast+%d tree+%d streamed+%d rejects+%d  %s\n", name,
			s1.FastTier-s0.FastTier, s1.TreeTier-s0.TreeTier, s1.Streamed-s0.Streamed,
			s1.BudgetRejects-s0.BudgetRejects, outcome(out, err))
	}
	streamCall := func(c *orb.Client, op uint32, payload []byte) ([]byte, error) {
		sc, err := c.OpenStream(context.Background(), "svc", op)
		if err != nil {
			return nil, err
		}
		defer sc.Close()
		werr := make(chan error, 1)
		go func() {
			_, err := sc.Write(payload)
			if err == nil {
				err = sc.CloseSend()
			}
			werr <- err
		}()
		out, rerr := io.ReadAll(sc)
		if err := <-werr; rerr == nil {
			rerr = err
		}
		return out, rerr
	}
	for _, rc := range cfg.Routes {
		p := hooked
		for _, q := range pairs {
			if q.name == rc.Name {
				p = q
			}
		}
		for _, v := range p.variants(p.gwOver) {
			row(ends[0], rc.Name, fmt.Sprintf("gw relay  %s/%s", rc.Name, v.name), func() ([]byte, error) {
				return ends[0].c.Invoke("svc", rc.Op, v.b)
			})
			row(ends[0], rc.Name, fmt.Sprintf("gw under  %s/%s", rc.Name, v.name), func() ([]byte, error) {
				return streamCall(ends[0].c, rc.Op, v.b)
			})
			row(ends[1], rc.Name, fmt.Sprintf("gw over   %s/%s", rc.Name, v.name), func() ([]byte, error) {
				return streamCall(ends[1].c, rc.Op, v.b)
			})
		}
	}
}
