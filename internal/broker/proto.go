// Broker protocol: the daemon-facing operations layered on orb frames.
// Every payload is CDR, marshaled by package wire against small protocol
// Mtypes (strings are the §3.2 recursive list encoding over Unicode
// characters; counters are 64-bit integers) — the broker speaks the same
// wire format as the stubs it compiles. The convert op carries the value
// itself as a raw CDR payload, encoded against the declaration's own
// Mtype, after the CDR-encoded request header.
package broker

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/mtype"
	"repro/internal/orb"
	"repro/internal/proto"
	"repro/internal/value"
	"repro/internal/wire"
)

// ObjectKey is the orb object key the broker service is registered under.
const ObjectKey = "mbird.broker"

// Broker protocol ops.
const (
	// OpLoad: Record(universe, lang, model, source, script) →
	// Record(existed, List(name)).
	OpLoad uint32 = iota + 1
	// 2 was OpAnnotate, which changed a loaded universe behind its load
	// record; it stays reserved and is never reused. OpLoad's script
	// argument is the one way to annotate a remote universe.
	_
	// OpCompare: Record(uA, declA, uB, declB) →
	// Record(relation, steps, cached, explain).
	OpCompare
	// OpPlan: Record(uA, declA, uB, declB) → Record(planText).
	OpPlan
	// OpConvert: Record(uA, declA, uB, declB) ++ CDR value of A's Mtype →
	// CDR value of B's Mtype.
	OpConvert
	// OpStats: empty → the Stats record (see statsRec).
	OpStats
	// OpHealth: empty → the Health record (see healthRec). Served without
	// admission control so it answers even when the daemon is saturated.
	OpHealth
	// OpConvertBatch: Record(uA, declA, uB, declB) ++ u32 count ++
	// count × (u32 len ++ CDR value of A's Mtype) → the same framing with
	// CDR values of B's Mtype. Each value is a standalone CDR payload
	// (alignment restarts at its first byte); the length words are plain
	// little-endian u32s outside the CDR layer. The whole batch is one
	// admitted request, so batching amortizes both the per-request
	// round-trip and the admission cost; MaxBatchItems bounds it.
	OpConvertBatch
)

// The load and pair requests and the plan reply are records of strings —
// five, four and one — which proto.MarshalStrings writes and
// proto.UnmarshalStrings reads without a declaration.

// loadReply is OpLoad's reply: whether the universe was already loaded,
// and its declaration names.
type loadReply struct {
	Existed bool
	Names   []string
}

// The structured replies, each declared once: the Mtype, the server's
// encode and the client's decode all derive from these field lists.
var (
	loadRec = proto.Declare(func(r *loadReply) []proto.Field {
		return []proto.Field{proto.Bool(&r.Existed), proto.List(&r.Names, proto.String)}
	})
	compareRec = proto.Declare(func(v *Verdict) []proto.Field {
		return []proto.Field{proto.Num(&v.Relation), proto.Num(&v.Steps), proto.Bool(&v.Cached), proto.String(&v.Explain)}
	})
	statsRec = proto.Declare(func(st *Stats) []proto.Field {
		return []proto.Field{
			proto.Num(&st.CompareHits), proto.Num(&st.CompareMisses), proto.Num(&st.CompareCoalesced),
			proto.Num(&st.CompareRuns), proto.Num(&st.CompareTotal), proto.Num(&st.VerdictEntries),
			proto.Num(&st.ConvertHits), proto.Num(&st.ConvertMisses), proto.Num(&st.ConvertCoalesced),
			proto.Num(&st.Compiles), proto.Num(&st.CompileTotal), proto.Num(&st.ConverterEntries),
			proto.Num(&st.Evictions), proto.Num(&st.InFlight), proto.Num(&st.DeadlineExceeded), proto.Num(&st.Sheds),
			proto.Num(&st.XcodeHits), proto.Num(&st.XcodeMisses), proto.Num(&st.XcodeCoalesced), proto.Num(&st.XcodeCompiles),
			proto.Num(&st.XcodeUnsupported), proto.Num(&st.XcodeEntries), proto.Num(&st.FastConverts), proto.Num(&st.TreeConverts),
			proto.Num(&st.WarmFills), proto.Num(&st.WarmHits), proto.Num(&st.PeerPulls), proto.Num(&st.PeerPushes),
		}
	})
	healthRec = proto.Declare(func(h *Health) []proto.Field {
		return h.Fields(proto.Num(&h.TranscoderEntries), proto.Num(&h.Peers))
	})
)

// appendBatch serializes a batch item list: u32 count, then per item a
// u32 length and the item bytes (all lengths plain little-endian,
// outside the CDR layer).
func appendBatch(dst []byte, items [][]byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(items)))
	for _, it := range items {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(it)))
		dst = append(dst, it...)
	}
	return dst
}

// parseBatch decodes an appendBatch item list, validating counts and
// lengths against the data actually present.
func parseBatch(data []byte) ([][]byte, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("broker: batch truncated at count")
	}
	count := binary.LittleEndian.Uint32(data)
	if count > MaxBatchItems {
		return nil, fmt.Errorf("broker: batch of %d exceeds %d items", count, MaxBatchItems)
	}
	data = data[4:]
	items := make([][]byte, count)
	for i := range items {
		if len(data) < 4 {
			return nil, fmt.Errorf("broker: batch truncated at item %d length", i)
		}
		n := binary.LittleEndian.Uint32(data)
		data = data[4:]
		if uint64(n) > uint64(len(data)) {
			return nil, fmt.Errorf("broker: batch item %d of %d bytes overruns body", i, n)
		}
		items[i] = data[:n:n]
		data = data[n:]
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("broker: %d trailing bytes after batch", len(data))
	}
	return items, nil
}

// Serve registers the broker service on an orb server under ObjectKey
// and attaches the server to the broker so the health op can expose its
// transport-level counters (recovered panics, per-connection sheds).
func Serve(srv *orb.Server, b *Broker) {
	b.chassis.Attach(srv)
	srv.Register(ObjectKey, Handler(b))
	srv.RegisterStream(ObjectKey, streamHandler(b))
}

// Handler returns the orb handler implementing the broker protocol, with
// admission control outermost. When the broker's RequestTimeout is set,
// each admitted request is bounded by it: the client gets a prompt
// deadline error while the session work runs to completion in the
// background (caches still warm, so a retry after the deadline is
// usually a hit). Health and stats requests bypass admission — they are
// pure counter reads and must answer when the daemon is saturated. A
// universe not loaded here is orb.ErrUnavailable: a peer may have it.
func Handler(b *Broker) orb.Handler {
	inner := handler(b)
	h := func(ctx context.Context, op uint32, body []byte) ([]byte, error) {
		reply, err := inner(ctx, op, body)
		if errors.Is(err, core.ErrNoUniverse) {
			err = fmt.Errorf("%w: %w", orb.ErrUnavailable, err)
		}
		return reply, err
	}
	d := b.opts.RequestTimeout
	return func(ctx context.Context, op uint32, body []byte) ([]byte, error) {
		if op == OpHealth || op == OpStats {
			return h(ctx, op, body)
		}
		if err := b.chassis.Admit(); err != nil {
			return nil, err
		}
		if d <= 0 {
			defer b.chassis.Release()
			return h(ctx, op, body)
		}
		type res struct {
			body []byte
			err  error
		}
		ch := make(chan res, 1)
		// The session work is detached from the caller's context on
		// purpose: a caller whose budget runs out mid-compile gets a
		// prompt typed error below, while the work finishes and warms the
		// caches so a retry with a fresh budget is a hit.
		bg := context.WithoutCancel(ctx)
		// Detached work can outlive this handler's return, and under orb
		// body pooling the request buffer is recycled the moment the
		// handler returns — hand the goroutine its own copy.
		if len(body) > 0 {
			body = append([]byte(nil), body...)
		}
		go func() {
			defer b.chassis.Release()
			// orb.Call, not a bare call: this goroutine is outside the orb
			// server's own recover, so an unguarded panic here would kill
			// the daemon.
			body, err := orb.Call(bg, h, op, body)
			ch <- res{body, err}
		}()
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case r := <-ch:
			return r.body, r.err
		case <-t.C:
			atomic.AddInt64(&b.live.DeadlineExceeded, 1)
			return nil, fmt.Errorf("broker: request exceeded server deadline %v", d)
		case <-ctx.Done():
			// The caller's propagated budget expired (or it sent a cancel
			// frame) while the work was in flight; answer with the typed
			// expiry so the client distinguishes "my clock ran out" from
			// "the broker is slow".
			atomic.AddInt64(&b.live.DeadlineExceeded, 1)
			if errors.Is(ctx.Err(), context.DeadlineExceeded) {
				return nil, fmt.Errorf("%w: budget spent while request was in flight", orb.ErrExpired)
			}
			return nil, fmt.Errorf("broker: caller went away: %w", ctx.Err())
		}
	}
}

func handler(b *Broker) orb.Handler {
	return func(ctx context.Context, op uint32, body []byte) ([]byte, error) {
		switch op {
		case OpLoad:
			args, err := proto.UnmarshalStrings(body, 5)
			if err != nil {
				return nil, err
			}
			var rep loadReply
			if rep.Names, rep.Existed, err = b.Load(args[0], args[1], args[2], args[3], args[4]); err != nil {
				return nil, err
			}
			return loadRec.Marshal(&rep)

		case OpCompare:
			args, err := proto.UnmarshalStrings(body, 4)
			if err != nil {
				return nil, err
			}
			v, err := b.Compare(args[0], args[1], args[2], args[3])
			if err != nil {
				return nil, err
			}
			return compareRec.Marshal(&v)

		case OpPlan:
			args, err := proto.UnmarshalStrings(body, 4)
			if err != nil {
				return nil, err
			}
			text, err := b.PlanText(args[0], args[1], args[2], args[3])
			if err != nil {
				return nil, err
			}
			return proto.MarshalStrings(text), nil

		case OpConvert:
			args, n, err := proto.UnmarshalStringsPrefix(body, 4)
			if err != nil {
				return nil, fmt.Errorf("convert header: %w", err)
			}
			return b.ConvertRaw(args[0], args[1], args[2], args[3], body[n:])

		case OpConvertBatch:
			args, n, err := proto.UnmarshalStringsPrefix(body, 4)
			if err != nil {
				return nil, fmt.Errorf("convert header: %w", err)
			}
			payloads, err := parseBatch(body[n:])
			if err != nil {
				return nil, err
			}
			outs, err := b.ConvertRawBatch(args[0], args[1], args[2], args[3], payloads)
			if err != nil {
				return nil, err
			}
			return appendBatch(nil, outs), nil

		case OpStats:
			st := b.Stats()
			return statsRec.Marshal(&st)

		case OpHealth:
			h := b.Health()
			return healthRec.Marshal(&h)

		default:
			return nil, fmt.Errorf("broker: unknown op %d", op)
		}
	}
}

// Client is a typed client for the broker protocol, safe for concurrent
// use (orb clients pipeline requests).
type Client struct {
	t proto.Transport
}

// NewTransportClient wraps any proto.Transport — typically a
// resil.Client for pooling, deadlines, retries, and hedging.
func NewTransportClient(t proto.Transport) *Client { return &Client{t: t} }

// DialTimeout bounds DialClient's connection attempt.
const DialTimeout = 10 * time.Second

// DialClient connects to a broker daemon over a single orb connection,
// bounding the dial by DialTimeout.
func DialClient(addr string) (*Client, error) {
	ctx, cancel := context.WithTimeout(context.Background(), DialTimeout)
	defer cancel()
	c, err := orb.DialContext(ctx, addr)
	if err != nil {
		return nil, err
	}
	return &Client{t: c}, nil
}

// Close tears down the underlying transport.
func (c *Client) Close() error { return c.t.Close() }

// Load ships a declaration source to the daemon. It is idempotent per
// universe name: existed reports that the universe was already loaded and
// the source was ignored. It is the one call kept in a form without a
// context beside LoadContext: the benchmark (bench/w_broker.go) calls it.
func (c *Client) Load(universe, lang, model, src, script string) (names []string, existed bool, err error) {
	return c.LoadContext(context.Background(), universe, lang, model, src, script)
}

// LoadContext is Load bounded by a context.
func (c *Client) LoadContext(ctx context.Context, universe, lang, model, src, script string) (names []string, existed bool, err error) {
	body := proto.MarshalStrings(universe, lang, model, src, script)
	reply, err := c.t.InvokeContext(ctx, ObjectKey, OpLoad, body)
	if err != nil {
		return nil, false, err
	}
	var rep loadReply
	err = loadRec.Unmarshal(reply, &rep)
	return rep.Names, rep.Existed, err
}

// CompareContext asks the daemon for the relation between two declarations.
func (c *Client) CompareContext(ctx context.Context, ua, da, ub, db string) (Verdict, error) {
	body := proto.MarshalStrings(ua, da, ub, db)
	reply, err := c.t.InvokeContext(ctx, ObjectKey, OpCompare, body)
	if err != nil {
		return Verdict{}, err
	}
	var v Verdict
	err = compareRec.Unmarshal(reply, &v)
	return v, err
}

// PlanContext fetches the rendered coercion plan for a pair.
func (c *Client) PlanContext(ctx context.Context, ua, da, ub, db string) (string, error) {
	body := proto.MarshalStrings(ua, da, ub, db)
	reply, err := c.t.InvokeContext(ctx, ObjectKey, OpPlan, body)
	if err != nil {
		return "", err
	}
	text, err := proto.UnmarshalStrings(reply, 1)
	if err != nil {
		return "", err
	}
	return text[0], nil
}

// ConvertRawContext converts a CDR-encoded value of declaration A into a
// CDR-encoded value of declaration B. The caller encodes/decodes against
// the declarations' Mtypes (which it can lower locally from the same
// sources it loaded).
func (c *Client) ConvertRawContext(ctx context.Context, ua, da, ub, db string, payload []byte) ([]byte, error) {
	hdr := proto.MarshalStrings(ua, da, ub, db)
	return c.t.InvokeContext(ctx, ObjectKey, OpConvert, append(hdr, payload...))
}

// ConvertBatchRawContext converts a slice of CDR-encoded values of declaration
// A into CDR-encoded values of declaration B in one request. The daemon
// resolves the pair's execution tier once and converts every item
// against it; item i of the result corresponds to payload i.
func (c *Client) ConvertBatchRawContext(ctx context.Context, ua, da, ub, db string, payloads [][]byte) ([][]byte, error) {
	body := proto.MarshalStrings(ua, da, ub, db)
	body = appendBatch(body, payloads)
	reply, err := c.t.InvokeContext(ctx, ObjectKey, OpConvertBatch, body)
	if err != nil {
		return nil, err
	}
	outs, err := parseBatch(reply)
	if err != nil {
		return nil, err
	}
	if len(outs) != len(payloads) {
		return nil, fmt.Errorf("broker: batch reply has %d items, want %d", len(outs), len(payloads))
	}
	return outs, nil
}

// ConvertBatchContext is ConvertBatchRawContext with client-side marshaling against
// the two Mtypes.
func (c *Client) ConvertBatchContext(ctx context.Context, ua, da, ub, db string, mtA, mtB *mtype.Type, vs []value.Value) ([]value.Value, error) {
	payloads := make([][]byte, len(vs))
	for i, v := range vs {
		p, err := wire.Marshal(mtA, v)
		if err != nil {
			return nil, err
		}
		payloads[i] = p
	}
	replies, err := c.ConvertBatchRawContext(ctx, ua, da, ub, db, payloads)
	if err != nil {
		return nil, err
	}
	outs := make([]value.Value, len(replies))
	for i, r := range replies {
		v, err := wire.Unmarshal(mtB, r)
		if err != nil {
			return nil, err
		}
		outs[i] = v
	}
	return outs, nil
}

// ConvertContext is ConvertRawContext with client-side marshaling against the two
// Mtypes (typically lowered by a local session from the same sources).
func (c *Client) ConvertContext(ctx context.Context, ua, da, ub, db string, mtA, mtB *mtype.Type, v value.Value) (value.Value, error) {
	payload, err := wire.Marshal(mtA, v)
	if err != nil {
		return nil, err
	}
	reply, err := c.ConvertRawContext(ctx, ua, da, ub, db, payload)
	if err != nil {
		return nil, err
	}
	return wire.Unmarshal(mtB, reply)
}

// StatsContext fetches the daemon's counter snapshot.
func (c *Client) StatsContext(ctx context.Context) (Stats, error) {
	reply, err := c.t.InvokeContext(ctx, ObjectKey, OpStats, nil)
	if err != nil {
		return Stats{}, err
	}
	var st Stats
	err = statsRec.Unmarshal(reply, &st)
	return st, err
}

// HealthContext fetches the daemon's readiness and load snapshot. It is served
// without admission control, so it answers even when the daemon sheds
// every other request.
func (c *Client) HealthContext(ctx context.Context) (Health, error) {
	reply, err := c.t.InvokeContext(ctx, ObjectKey, OpHealth, nil)
	if err != nil {
		return Health{}, err
	}
	var h Health
	err = healthRec.Unmarshal(reply, &h)
	return h, err
}
