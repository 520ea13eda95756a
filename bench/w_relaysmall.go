package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/orb"
	"repro/internal/resil"
	"repro/internal/value"
	"repro/internal/wire"
)

// relaySmall is the per-message workload: each caller holds one orb
// connection to a gateway whose data route has fused request (mix→pair)
// and reply (pair→mix) lanes to an echo upstream. At 8 bytes, orb, resil
// and gateway are the whole cost and transcode is about 1 % of it.
var relaySmall = &workload{
	name:     "relay_small",
	warmOps:  15000,
	blockOps: 2048, lapBlocks: 20, // 60 µs a call
	spanNames: []string{spRelayCall: "orb.call", spEcho: "upstream.echo"},
	setup:     setupRelaySmall,
}

const (
	spRelayCall uint16 = iota
	spEcho
)

func mixDecl() gateway.DeclConfig {
	return gateway.DeclConfig{Lang: "c", Source: "typedef struct { float r; int n; } mix;", Decl: "mix"}
}
func pairDecl() gateway.DeclConfig {
	return gateway.DeclConfig{Lang: "c", Source: "typedef struct { int count; float ratio; } pair;", Decl: "pair"}
}

const (
	relayKey     = "svc"
	relayPassKey = "svc.pass"
)

// echoUpstream is the benchmark's own upstream: it checks that what
// arrived is the pair image of the fixture (ratio 1.5; count is the
// request id) and echoes it. During a traced window it records a span
// whose parent is the client span the id names.
func echoUpstream(e *env, ratio []byte) orb.Handler {
	return func(_ context.Context, _ uint32, body []byte) ([]byte, error) {
		tr := e.tr.Load()
		var id int32
		if tr != nil && len(body) == 8 {
			parent := int32(binary.LittleEndian.Uint32(body))
			id = tr.begin(spEcho, parent, parent)
		}
		if len(body) != 8 || !bytes.Equal(body[4:], ratio) {
			return nil, fmt.Errorf("upstream got %x, want a pair with ratio %x", body, ratio)
		}
		if tr != nil {
			tr.end(id)
		}
		return body, nil
	}
}

func setupRelaySmall(e *env) (*instance, error) {
	mix, err := testdataHex("mix.cdr.hex")
	if err != nil {
		return nil, err
	}
	pairBytes, err := testdataHex("pair.cdr.hex")
	if err != nil {
		return nil, err
	}
	var cl closers
	fail := func(err error) (*instance, error) { cl.close(); return nil, err }

	up, err := newServer(&cl)
	if err != nil {
		return fail(err)
	}
	// The fixed fixture is checked against the hand-written bytes once:
	// mix{1.5, 7} must reach the upstream as testdata's pair, and come
	// back as testdata's mix.
	seen := make(chan []byte, 1)
	echo := echoUpstream(e, pairBytes[4:])
	up.Register(relayKey, func(ctx context.Context, op uint32, body []byte) ([]byte, error) {
		seen <- append([]byte{}, body...)
		return echo(ctx, op, body)
	})
	// The data route has the fused lanes. The passthrough route beside it
	// carries no workload traffic: it is the ladder's second rung, on the
	// same gateway and the same upstream pool, so that the two rungs differ
	// by the lanes and nothing else.
	routes := []gateway.RouteConfig{{
		Name: "fused", Key: relayKey, Op: 1,
		Request: &gateway.LaneConfig{From: mixDecl(), To: pairDecl()},
		Reply:   &gateway.LaneConfig{From: pairDecl(), To: mixDecl()},
	}, {
		Name: "pass", Key: relayPassKey, Op: 1, UpstreamKey: relayKey,
	}}
	gw, gwAddr, err := startGateway(&cl, &gateway.Config{Upstream: up.Addr(), Routes: routes})
	if err != nil {
		return fail(err)
	}
	var clients [callers]*orb.Client
	for i := range clients {
		if clients[i], err = dial(&cl, gwAddr); err != nil {
			return fail(err)
		}
	}
	reply, err := clients[0].InvokeContext(context.Background(), relayKey, 1, mix)
	if err != nil {
		return fail(fmt.Errorf("fixed fixture: %w", err))
	}
	if got := <-seen; !bytes.Equal(got, pairBytes) || !bytes.Equal(reply, mix) {
		return fail(fmt.Errorf("fixed fixture: upstream saw %x (want %x), client got %x (want %x)", got, pairBytes, reply, mix))
	}
	up.Register(relayKey, echo)

	// The generated input is the id stream: caller c's i-th request carries
	// id (seed-derived base + i), so the same seed sends the same bytes.
	d := newDigest()
	var base [callers]uint32
	for c := range base {
		base[c] = uint32(newRNG(e.seed, fmt.Sprintf("relay_small/%d", c)).intn(1 << 28))
		d.ints(int(base[c]))
	}
	var bufs [callers][8]byte
	for c := range bufs {
		copy(bufs[c][:], mix)
	}
	op := func(c, i int) (int, error) {
		buf := bufs[c][:]
		tr := e.tr.Load()
		var id int32
		if tr != nil {
			// The span id travels as the request id, so the upstream's span
			// can name its parent.
			id = tr.begin(spRelayCall, 0, 0)
			binary.LittleEndian.PutUint32(buf[4:], uint32(id))
		} else {
			binary.LittleEndian.PutUint32(buf[4:], base[c]+uint32(i))
		}
		reply, err := clients[c].InvokeContext(context.Background(), relayKey, 1, buf)
		tr.endIf(id)
		if err != nil {
			return 0, err
		}
		if !bytes.Equal(reply, buf) {
			return 0, fmt.Errorf("reply %x, want %x", reply, buf)
		}
		return len(buf), nil
	}

	inst := &instance{op: op, digest: d.sum(), close: cl.close}
	inst.layers = func(lt layerTimes, tr *tracer, m metricSet) {
		// Join each upstream span to its client span: the request leg is
		// what came before the upstream handler, the reply leg what came
		// after. Both cross the gateway.
		spans := tr.recorded()
		var req, rep, share []float64
		for _, s := range spans {
			if s.name != spEcho || s.end == 0 || s.parent == 0 {
				continue
			}
			p := spans[s.parent-1]
			if p.end == 0 {
				continue
			}
			req = append(req, float64(s.start-p.start))
			rep = append(rep, float64(p.end-s.end))
			share = append(share, float64((s.start-p.start)+(s.end-s.start)+(p.end-s.end))/float64(p.end-p.start))
		}
		m.set("gateway.req_leg_ns", medianF(req), len(req))
		m.set("gateway.reply_leg_ns", medianF(rep), len(rep))
		m.set("trace.attributed_share", medianF(share), len(share))
		m.set("orb.call_p99_us", tail(lt.lat, 0.99)/1e3, len(lt.lat))
	}
	inst.ladder = func(budget time.Duration, m metricSet) error {
		return relaySmallLadder(gw, clients[0], up.Addr(), mix, pairBytes, budget, m)
	}
	return inst, nil
}

func fusedRouteStats(gw *gateway.Gateway) gateway.RouteStats {
	for _, r := range gw.Stats().Routes {
		if r.Name == "fused" {
			return r
		}
	}
	return gateway.RouteStats{}
}

// relaySmallLadder drives the 8-byte fixture, one caller, through
// successively longer paths to the same echo upstream; adjacent rungs'
// differences are the layers' self times.
func relaySmallLadder(gw *gateway.Gateway, fused *orb.Client, upAddr string, mix, pairBytes []byte, budget time.Duration, m metricSet) error {
	l := ladder{per: budget / 8, m: m}
	ctx := context.Background()
	var cl closers
	defer cl.close()

	// Below the network: the codec and the two fused lanes.
	sess := core.NewSession()
	reqPair, err := compilePair(sess, mixDecl(), pairDecl())
	if err != nil {
		return err
	}
	repPair, err := compilePair(sess, pairDecl(), mixDecl())
	if err != nil {
		return err
	}
	mixValue := value.NewRecord(value.Real{V: 1.5}, value.NewInt(7))
	if _, _, err := l.time("wire.marshal_ns", func() error { _, err := wire.Marshal(reqPair.mtA, mixValue); return err }); err != nil {
		return err
	}
	if _, _, err := l.time("wire.unmarshal_ns", func() error { _, err := wire.Unmarshal(reqPair.mtA, mix); return err }); err != nil {
		return err
	}
	for _, lane := range []struct {
		name string
		p    *pair
		src  []byte
	}{{"transcode.req_ns", reqPair, mix}, {"transcode.reply_ns", repPair, pairBytes}} {
		xc, err := lane.p.transcoder()
		if err != nil {
			return err
		}
		var dst []byte
		if _, _, err := l.time(lane.name, func() (err error) { dst, err = xc.TranscodeAppend(dst[:0], lane.src); return err }); err != nil {
			return err
		}
	}

	// The network rungs, interleaved: one hop with orb alone, resil's pool
	// in front of it, two hops through the gateway's passthrough route, and
	// two hops through the workload's own fused route.
	direct, err := dial(&cl, upAddr)
	if err != nil {
		return err
	}
	pool := resil.New(upAddr, resil.Options{})
	cl.add(func() { _ = pool.Close() })
	before := fusedRouteStats(gw)
	net, err := rungs(4*l.per,
		func() error { _, err := direct.InvokeContext(ctx, relayKey, 1, pairBytes); return err },
		func() error { _, err := pool.InvokeContext(ctx, relayKey, 1, pairBytes); return err },
		func() error { _, err := fused.InvokeContext(ctx, relayPassKey, 1, pairBytes); return err },
		func() error { _, err := fused.InvokeContext(ctx, relayKey, 1, mix); return err },
	)
	if err != nil {
		return fmt.Errorf("network rungs: %w", err)
	}
	orb, res, passed, fusedCall := net[0], net[1], net[2], net[3]
	m.set("orb.call_ns", orb.ns, orb.calls)
	m.set("orb.call_allocs", orb.allocs, 0)
	m.set("resil.call_ns", res.ns, res.calls)
	m.set("resil.self_ns", res.ns-orb.ns, 0)
	m.set("gateway.pass_call_ns", passed.ns, passed.calls)
	m.set("gateway.pass_allocs", passed.allocs, 0)
	m.set("gateway.second_hop_ns", passed.ns-orb.ns, 0)
	m.set("gateway.fused_call_ns", fusedCall.ns, fusedCall.calls)
	m.set("gateway.fused_allocs", fusedCall.allocs, 0)
	m.set("gateway.lanes_self_ns", fusedCall.ns-passed.ns, 0)
	after := fusedRouteStats(gw)
	if n := after.Requests - before.Requests; n > 0 {
		m.set("gateway.transcode_ns_per_req", float64((after.TranscodeTotal-before.TranscodeTotal).Nanoseconds())/float64(n), int(n))
	}
	return nil
}
