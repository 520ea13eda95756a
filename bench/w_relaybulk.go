package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/orb"
	"repro/internal/stream"
	"repro/internal/value"
	"repro/internal/wire"
)

// relayBulk is the bytes-not-messages workload: each operation
// stream-opens a call carrying a 4 MiB sequence<Rec> (65 536 records of 64
// bytes, 8 fields permuted between the endpoints) in 32 KiB writes through
// the gateway's streaming lane to a sink upstream that CRC-32s what
// arrives. stream, transcode.SeqStep and orb's credit flow do the work;
// per-call costs amortise to nothing.
var relayBulk = &workload{
	name:     "relay_bulk",
	mbPerS:   true,
	warmOps:  20,
	blockOps: 4, lapBlocks: 28, // 22 ms a call
	// At baseline the high-water mark is 52–57 MiB, 12 MiB of it the
	// benchmark's own payload and latency slices. A relay that held whole
	// 4 MiB bodies, two callers' requests and their transcoded images, would
	// add 16 MiB of live buffers and as much again before the collector ran.
	rssEnvelopeMiB: 80,
	spanNames:      []string{spBulkCall: "orb.stream_call", spSink: "upstream.sink"},
	setup:          setupRelayBulk,
}

const (
	spBulkCall uint16 = iota
	spSink
)

const (
	bulkASrc    = "struct Rec { long n; double x; long m; double y; long p; double z; long q; double w; };\ntypedef sequence<Rec> Batch;"
	bulkBSrc    = "struct Rec { double x; long n; double y; long m; double z; long p; double w; long q; };\ntypedef sequence<Rec> Batch;"
	bulkRecords = 65536 // × 64 bytes = 4 MiB on the A side
	bulkChunk   = 32 << 10
	bulkKey     = "bulk"
)

func bulkADecl() gateway.DeclConfig {
	return gateway.DeclConfig{Lang: "idl", Source: bulkASrc, Decl: "Batch"}
}
func bulkBDecl() gateway.DeclConfig {
	return gateway.DeclConfig{Lang: "idl", Source: bulkBSrc, Decl: "Batch"}
}

// bulkRec is one record's field values, in A's declaration order.
type bulkRec struct {
	n, m, p, q int32
	x, y, z, w float64
}

func (r *rng) bulkRec() bulkRec {
	return bulkRec{
		n: int32(r.next()), m: int32(r.next()), p: int32(r.next()), q: int32(r.next()),
		x: r.quarter(), y: r.quarter(), z: r.quarter(), w: r.quarter(),
	}
}

// appendA and appendB lay one record out by hand in each endpoint's field
// order. They are the benchmark's oracle for this workload: the B image
// is what the sink must receive.
func (v bulkRec) appendA(b []byte) []byte {
	b = appendF64(appendI32(b, v.n), v.x)
	b = appendF64(appendI32(b, v.m), v.y)
	b = appendF64(appendI32(b, v.p), v.z)
	return appendF64(appendI32(b, v.q), v.w)
}

func (v bulkRec) appendB(b []byte) []byte {
	b = appendI32(appendF64(b, v.x), v.n)
	b = appendI32(appendF64(b, v.y), v.m)
	b = appendI32(appendF64(b, v.z), v.p)
	return appendI32(appendF64(b, v.w), v.q)
}

func (v bulkRec) valueA() value.Value {
	return value.NewRecord(value.NewInt(int64(v.n)), value.Real{V: v.x}, value.NewInt(int64(v.m)), value.Real{V: v.y},
		value.NewInt(int64(v.p)), value.Real{V: v.z}, value.NewInt(int64(v.q)), value.Real{V: v.w})
}

func (v bulkRec) valueB() value.Value {
	return value.NewRecord(value.Real{V: v.x}, value.NewInt(int64(v.n)), value.Real{V: v.y}, value.NewInt(int64(v.m)),
		value.Real{V: v.z}, value.NewInt(int64(v.p)), value.Real{V: v.w}, value.NewInt(int64(v.q)))
}

// bulkPayload builds the A image of `records` seeded records as bytes and
// the CRC-32 of their B image, never holding a value tree or the B image.
func bulkPayload(r *rng, records int) (a []byte, bCRC uint32) {
	a = binary.LittleEndian.AppendUint32(make([]byte, 0, 64*records), uint32(records))
	b := binary.LittleEndian.AppendUint32(make([]byte, 0, bulkChunk+128), uint32(records))
	for i := 0; i < records; i++ {
		rec := r.bulkRec()
		a = rec.appendA(a)
		b = rec.appendB(b)
		// Flush B in multiples of 8 so the retained tail keeps its
		// alignment phase.
		if len(b) >= bulkChunk {
			n := len(b) &^ 7
			bCRC = crc32.Update(bCRC, crc32.IEEETable, b[:n])
			b = append(b[:0], b[n:]...)
		}
	}
	return a, crc32.Update(bCRC, crc32.IEEETable, b)
}

// checkBulkLayout proves the hand layout against the codec on three
// records: both images must equal what wire.Marshal makes of the trees.
func checkBulkLayout(sess *core.Session) (*pair, error) {
	p, err := compilePair(sess, bulkADecl(), bulkBDecl())
	if err != nil {
		return nil, err
	}
	r := &rng{s: 7}
	var as, bs []value.Value
	a := binary.LittleEndian.AppendUint32(nil, 3)
	b := binary.LittleEndian.AppendUint32(nil, 3)
	for i := 0; i < 3; i++ {
		rec := r.bulkRec()
		a, b = rec.appendA(a), rec.appendB(b)
		as, bs = append(as, rec.valueA()), append(bs, rec.valueB())
	}
	wantA, err := wire.Marshal(p.mtA, value.FromSlice(as))
	if err != nil {
		return nil, err
	}
	wantB, err := wire.Marshal(p.mtB, value.FromSlice(bs))
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(a, wantA) || !bytes.Equal(b, wantB) {
		return nil, fmt.Errorf("hand-laid records differ from the codec's: A %v, B %v", bytes.Equal(a, wantA), bytes.Equal(b, wantB))
	}
	return p, nil
}

// sinkReply is what the sink upstream answers: the element count it read
// from the stream's first word, the CRC-32 of everything that arrived, and
// the id of the span it recorded (0 with tracing off).
const sinkReplyLen = 12

func sinkSum(e *env, in io.Reader) ([]byte, error) {
	buf := make([]byte, 256<<10)
	tr := e.tr.Load()
	var id int32
	if tr != nil {
		id = tr.begin(spSink, 0, 0) // the client adopts it when the reply arrives
	}
	var crc uint32
	var head [4]byte
	filled := 0
	for {
		n, err := in.Read(buf)
		if filled < len(head) {
			filled += copy(head[filled:], buf[:n])
		}
		crc = crc32.Update(crc, crc32.IEEETable, buf[:n])
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
	}
	tr.endIf(id)
	reply := make([]byte, sinkReplyLen)
	copy(reply, head[:])
	binary.LittleEndian.PutUint32(reply[4:], crc)
	binary.LittleEndian.PutUint32(reply[8:], uint32(id))
	return reply, nil
}

// registerSink exports the sink for streamed and for buffered calls.
func registerSink(e *env, srv *orb.Server) {
	srv.RegisterStream(bulkKey, func(_ context.Context, _ uint32, in *orb.StreamReader, out *orb.StreamWriter) error {
		reply, err := sinkSum(e, in)
		if err != nil {
			return err
		}
		_, err = out.Write(reply)
		return err
	})
	srv.Register(bulkKey, func(_ context.Context, _ uint32, body []byte) ([]byte, error) {
		return sinkSum(e, bytes.NewReader(body))
	})
}

// streamCall sends payload in 32 KiB writes on a stream-opened call and
// returns the sink's reply.
func streamCall(c *orb.Client, payload []byte) ([]byte, error) {
	sc, err := c.OpenStream(context.Background(), bulkKey, 1)
	if err != nil {
		return nil, err
	}
	defer func() { _ = sc.Close() }()
	for off := 0; off < len(payload); off += bulkChunk {
		if _, err := sc.Write(payload[off:min(off+bulkChunk, len(payload))]); err != nil {
			return nil, err
		}
	}
	if err := sc.CloseSend(); err != nil {
		return nil, err
	}
	return io.ReadAll(sc)
}

func checkSinkReply(reply []byte, count, crc uint32) error {
	if len(reply) != sinkReplyLen {
		return fmt.Errorf("sink replied %d bytes, want %d", len(reply), sinkReplyLen)
	}
	if gotN, gotCRC := binary.LittleEndian.Uint32(reply), binary.LittleEndian.Uint32(reply[4:]); gotN != count || gotCRC != crc {
		return fmt.Errorf("sink saw %d records crc %08x, want %d records crc %08x", gotN, gotCRC, count, crc)
	}
	return nil
}

func setupRelayBulk(e *env) (*instance, error) {
	bulk, err := checkBulkLayout(core.NewSession())
	if err != nil {
		return nil, err
	}
	payload, wantCRC := bulkPayload(newRNG(e.seed, "relay_bulk"), bulkRecords)
	d := newDigest()
	d.bytes(payload)

	var cl closers
	fail := func(err error) (*instance, error) { cl.close(); return nil, err }
	up, err := newServer(&cl)
	if err != nil {
		return fail(err)
	}
	registerSink(e, up)
	route := gateway.RouteConfig{Key: bulkKey, Op: 1, Request: &gateway.LaneConfig{From: bulkADecl(), To: bulkBDecl()}}
	gw, gwAddr, err := startGateway(&cl, &gateway.Config{Upstream: up.Addr(), Routes: []gateway.RouteConfig{route}})
	if err != nil {
		return fail(err)
	}
	var clients [callers]*orb.Client
	for i := range clients {
		if clients[i], err = dial(&cl, gwAddr); err != nil {
			return fail(err)
		}
	}
	op := func(c, _ int) (int, error) {
		tr := e.tr.Load()
		var id int32
		if tr != nil {
			id = tr.begin(spBulkCall, 0, 0)
		}
		reply, err := streamCall(clients[c], payload)
		tr.endIf(id)
		if err != nil {
			return 0, err
		}
		if err := checkSinkReply(reply, bulkRecords, wantCRC); err != nil {
			return 0, err
		}
		if tr != nil {
			tr.adopt(int32(binary.LittleEndian.Uint32(reply[8:])), id)
		}
		return len(payload), nil
	}
	inst := &instance{op: op, digest: d.sum(), close: cl.close}
	inst.check = func() error {
		if r := gw.Stats().Routes[0]; r.Streamed < r.Requests {
			return fmt.Errorf("%d of %d requests missed the gateway's streaming lane", r.Requests-r.Streamed, r.Requests)
		}
		return nil
	}
	inst.layers = func(lt layerTimes, _ *tracer, m metricSet) {
		m.set("orb.stream_p90_ms", tail(lt.lat, 0.90)/1e6, len(lt.lat))
	}
	inst.ladder = func(budget time.Duration, m metricSet) error {
		return relayBulkLadder(e, bulk, clients[0], up.Addr(), payload, budget, m)
	}
	return inst, nil
}

// relayBulkLadder moves the same 4 MiB, one caller, through successively
// longer paths: the one-shot transcoder, the chunked engine, an orb stream
// with no gateway, then the gateway's passthrough, fused and buffered
// lanes.
func relayBulkLadder(e *env, bulk *pair, fused *orb.Client, upAddr string, payload []byte, budget time.Duration, m metricSet) error {
	per := budget / 6
	var cl closers
	defer cl.close()
	mb := float64(len(payload)) / 1e6
	rate := func(name string, bytesPerCall float64, fn func() error) (mbPerS, allocs float64, err error) {
		ns, allocs, n, err := rung(per, fn)
		if err != nil {
			return 0, 0, fmt.Errorf("%s: %w", name, err)
		}
		mbPerS = bytesPerCall / 1e6 / (ns / 1e9)
		m.set(name, mbPerS, n)
		return mbPerS, allocs, nil
	}

	xc, err := bulk.transcoder()
	if err != nil {
		return err
	}
	var dst []byte
	oneshot, _, err := rate("transcode.list_mb_per_s", float64(len(payload)), func() (err error) {
		dst, err = xc.TranscodeAppend(dst[:0], payload)
		return err
	})
	if err != nil {
		return err
	}
	dst = nil
	push, pushAllocs, err := rate("stream.push_mb_per_s", float64(len(payload)), func() error {
		eng := stream.New(xc, stream.Options{})
		defer eng.Release()
		for off := 0; off < len(payload); off += bulkChunk {
			if err := eng.Push(payload[off:min(off+bulkChunk, len(payload))]); err != nil {
				return err
			}
			eng.Take()
		}
		_, err := eng.Finish()
		return err
	})
	if err != nil {
		return err
	}
	m.set("stream.allocs_per_mb", pushAllocs/mb, 0)
	m.set("stream.vs_oneshot_ratio", push/oneshot, 0) // base: transcode.list_mb_per_s

	direct, err := dial(&cl, upAddr)
	if err != nil {
		return err
	}
	if _, _, err := rate("orb.stream_mb_per_s", float64(len(payload)), func() error {
		_, err := streamCall(direct, payload)
		return err
	}); err != nil {
		return err
	}
	_, passAddr, err := startGateway(&cl, &gateway.Config{Upstream: upAddr, Routes: []gateway.RouteConfig{{Key: bulkKey, Op: 1}}})
	if err != nil {
		return err
	}
	pass, err := dial(&cl, passAddr)
	if err != nil {
		return err
	}
	if _, _, err := rate("gateway.stream_pass_mb_per_s", float64(len(payload)), func() error {
		_, err := streamCall(pass, payload)
		return err
	}); err != nil {
		return err
	}
	if _, _, err := rate("gateway.stream_fused_mb_per_s", float64(len(payload)), func() error {
		_, err := streamCall(fused, payload)
		return err
	}); err != nil {
		return err
	}
	// The buffered lane: the same route used the other way, 1 MiB bodies
	// (at the streaming threshold, not above it) in plain calls.
	const small = (1 << 20) / 64
	body, crc := bulkPayload(newRNG(e.seed, "relay_bulk/buffered"), small)
	_, _, err = rate("gateway.buffered_mb_per_s", float64(len(body)), func() error {
		reply, err := fused.InvokeContext(context.Background(), bulkKey, 1, body)
		if err != nil {
			return err
		}
		return checkSinkReply(reply, small, crc)
	})
	return err
}
