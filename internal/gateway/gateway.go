// Package gateway is the interop gateway: an orb-framed proxy that lets
// two endpoints speaking *different* declarations hold a live
// conversation. Clients connect to the gateway and marshal against
// declaration A; the gateway forwards each request to an upstream
// server expecting declaration B, transcoding the payload A→B in
// flight, and transcodes the reply B→A on the way back. This turns the
// stub compiler's conversion machinery into a runtime data plane: the
// adaptation artifact the paper's flexible-stub story implies, without
// either endpoint changing a line.
//
// A route table (JSON, hot-reloadable) maps operation keys — (orb
// object key, op number) pairs — to declaration pairs. At route load
// the gateway lowers both declarations through a core.Session, compares
// them, and has core.Session.BuildTranscoder assemble each payload
// direction into a lane — one transcode.Transcoder, which is the fused
// CDR-bytes→CDR-bytes program (fast tier) or, when the fuser refuses the
// plan (e.g. semantic hooks), the tree rung with identical bytes (tree
// tier; package transcode's ladder table). The gateway runs either the
// same way and only counts which it was.
//
// Compiled lanes are cached by exact fingerprint pair
// (internal/fingerprint), so routes sharing a declaration pair — and
// reloads that keep a pair — reuse one compilation. Upstream
// connections go through internal/resil pools (deadlines, retries,
// hedging); admission control is the serving chassis the broker also
// sits behind (internal/serve), payload budgets mirror the broker's
// (internal/limits); per-route counters are served on an admin
// stats/health protocol shaped like the broker's.
package gateway

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fingerprint"
	"repro/internal/limits"
	"repro/internal/metrics"
	"repro/internal/mtype"
	"repro/internal/orb"
	"repro/internal/resil"
	"repro/internal/serve"
	"repro/internal/transcode"
)

// Options configures a Gateway. Zero values select the defaults.
type Options struct {
	// MaxInFlight bounds data-plane requests admitted concurrently
	// (default 1024). A request arriving at the cap waits up to
	// AdmitWait for a slot, then is shed with a typed orb.ErrOverloaded.
	// Negative disables admission control. Admin ops bypass it.
	MaxInFlight int
	// AdmitWait is how long an arriving request may wait for an
	// admission slot before being shed (default 5ms).
	AdmitWait time.Duration
	// MaxPayload bounds each request and reply payload in bytes
	// (default limits.DefaultMaxBytes; negative disables). Violations
	// are typed limits.ErrBudget errors. Streamed request bodies are
	// exempt — the byte budget applies to what the gateway holds in
	// memory, and a streamed body never is held whole.
	MaxPayload int
	// StreamThreshold is the request size above which a stream-opened
	// call relays chunk-by-chunk to the upstream instead of buffering
	// (default DefaultStreamThreshold; negative disables streaming
	// relay, buffering every stream under the payload budget). Bodies
	// at or below the threshold take the buffered path with its full
	// resilience envelope (retries, hedging, every lane tier).
	StreamThreshold int
	// Upstream tunes the resil connection pools the gateway dials
	// upstreams with (pool size, call deadlines, retries, hedging).
	// Fleet upstreams use it for each member's pool.
	Upstream resil.Options
	// session supplies a pre-configured core.Session — the hook table
	// (RegisterSemantic) must be populated before the first route
	// compiles. Nil creates a fresh session. Only in-package tests set it.
	session *core.Session
}

func (o Options) withDefaults() Options {
	if o.MaxInFlight == 0 {
		o.MaxInFlight = 1024
	}
	if o.AdmitWait <= 0 {
		o.AdmitWait = 5 * time.Millisecond
	}
	if o.session == nil {
		o.session = core.NewSession()
	}
	if o.StreamThreshold == 0 {
		o.StreamThreshold = DefaultStreamThreshold
	}
	return o
}

// route is one compiled table entry.
type route struct {
	key    string
	op     uint32
	upAddr string
	upKey  string
	upOp   uint32
	up     upstream
	rk     []byte // content-derived fleet route key
	// req and rep are the compiled payload directions, each on whichever
	// rung its pair reached; nil = passthrough.
	req, rep *transcode.Transcoder
	// live is the route's counter block, bumped with sync/atomic. It is
	// keyed by route name and survives hot reloads, so a reload does not
	// zero the counters of routes that persist.
	live *RouteStats
}

// table is the immutable routing state the data plane reads; reloads
// build a fresh table and swap the pointer.
type table struct {
	routes map[string]map[uint32]*route // object key → op → route
}

func (t *table) lookup(key string, op uint32) *route {
	if t == nil {
		return nil
	}
	return t.routes[key][op]
}

func (t *table) keys() map[string]bool {
	ks := make(map[string]bool, len(t.routes))
	for k := range t.routes {
		ks[k] = true
	}
	return ks
}

// Gateway is the interop proxy. All methods are safe for concurrent
// use; the data plane is lock-free against reloads (it reads an
// atomically swapped route table).
type Gateway struct {
	opts   Options
	budget limits.Budget

	// sessMu serializes the core.Session (lowering and comparison
	// memoize into shared maps), exactly as the broker does.
	sessMu sync.Mutex
	sess   *core.Session

	tab atomic.Pointer[table]

	// chassis is the data plane's admission gate plus the orb server the
	// gateway is registered on (attached by Serve).
	chassis *serve.Chassis

	// mu serializes control-plane mutation: reloads, pool creation,
	// lane-cache fills, and Close.
	mu       sync.Mutex
	pools    map[string]*resil.Client
	fleets   map[string]*cluster.Client
	lanes    map[fingerprint.PairKey]*transcode.Transcoder
	counters map[string]*RouteStats
	reloader func() (*Config, error)
	closed   bool

	live Stats // gateway-wide counters, bumped with sync/atomic
}

// New returns a Gateway with an empty route table. Call SetConfig (or
// Reload) to install routes, then Serve to attach it to an orb server.
func New(opts Options) *Gateway {
	opts = opts.withDefaults()
	g := &Gateway{
		opts:     opts,
		budget:   limits.Budget{MaxBytes: opts.MaxPayload}.WithDefaults(),
		sess:     opts.session,
		pools:    make(map[string]*resil.Client),
		fleets:   make(map[string]*cluster.Client),
		lanes:    make(map[fingerprint.PairKey]*transcode.Transcoder),
		counters: make(map[string]*RouteStats),
		chassis:  serve.New(opts.MaxInFlight, opts.AdmitWait),
	}
	g.tab.Store(&table{routes: map[string]map[uint32]*route{}})
	return g
}

// Serve registers the gateway on an orb server: the admin service under
// AdminKey plus, for every routed object key, a frame-relay handler for
// buffered requests and a streaming relay handler for stream opens.
func (g *Gateway) Serve(srv *orb.Server) {
	g.chassis.Attach(srv)
	srv.Register(AdminKey, g.adminHandler())
	for key := range g.tab.Load().keys() {
		srv.Register(key, g.frontHandler(key))
		srv.RegisterStream(key, g.frontStreamHandler(key))
	}
}

// Close tears down every upstream pool. The orb server the gateway is
// registered on belongs to the caller and is not touched.
func (g *Gateway) Close() error {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return nil
	}
	g.closed = true
	pools := g.pools
	fleets := g.fleets
	g.pools = map[string]*resil.Client{}
	g.fleets = map[string]*cluster.Client{}
	g.mu.Unlock()
	for _, p := range pools {
		_ = p.Close()
	}
	for _, f := range fleets {
		_ = f.Close()
	}
	return nil
}

// SetReloader installs the callback the admin reload op (and SIGHUP in
// mbirdgw) uses to fetch a fresh Config — typically re-reading the
// route file.
func (g *Gateway) SetReloader(fn func() (*Config, error)) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.reloader = fn
}

// Reload fetches a fresh config through the reloader and installs it.
func (g *Gateway) Reload() (int, error) {
	g.mu.Lock()
	fn := g.reloader
	g.mu.Unlock()
	if fn == nil {
		return 0, errors.New("gateway: no reloader configured")
	}
	cfg, err := fn()
	if err != nil {
		return 0, err
	}
	if err := g.SetConfig(cfg); err != nil {
		return 0, err
	}
	return len(cfg.Routes), nil
}

// SetConfig compiles cfg into a complete new route table and swaps it
// in atomically: every route compiles (declarations load, pairs relate,
// lanes build) or the old table stays untouched. On success, object
// keys no longer routed are unregistered from the serving orb server
// and new keys are registered. Counters persist for routes whose names
// survive the reload; compiled lanes are reused by fingerprint pair.
func (g *Gateway) SetConfig(cfg *Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return errors.New("gateway: closed")
	}
	routes := make(map[string]map[uint32]*route)
	for i := range cfg.Routes {
		rc := &cfg.Routes[i]
		r, err := g.compileRoute(cfg, rc)
		if err != nil {
			return fmt.Errorf("gateway: route %s: %w", rc.DisplayName(), err)
		}
		if routes[r.key] == nil {
			routes[r.key] = make(map[uint32]*route)
		}
		routes[r.key][r.op] = r
	}
	old := g.tab.Swap(&table{routes: routes})
	g.retireUpstreams(routes)
	if srv := g.chassis.Server(); srv != nil {
		oldKeys := old.keys()
		for key := range routes {
			if !oldKeys[key] {
				srv.Register(key, g.frontHandler(key))
				srv.RegisterStream(key, g.frontStreamHandler(key))
			}
			delete(oldKeys, key)
		}
		for key := range oldKeys {
			srv.Unregister(key)
		}
	}
	return nil
}

// compileRoute builds one route: its upstream pool, its counters
// (reused by name across reloads), and its two lanes. Called with g.mu
// held.
func (g *Gateway) compileRoute(cfg *Config, rc *RouteConfig) (*route, error) {
	name := rc.DisplayName()
	r := &route{
		key:    rc.Key,
		op:     rc.Op,
		upAddr: rc.Upstream,
		upKey:  rc.UpstreamKey,
		upOp:   rc.Op,
	}
	if r.upAddr == "" {
		r.upAddr = cfg.Upstream
	}
	if r.upKey == "" {
		r.upKey = rc.Key
	}
	if rc.UpstreamOp != nil {
		r.upOp = *rc.UpstreamOp
	}
	if r.live = g.counters[name]; r.live == nil {
		r.live = &RouteStats{Name: name}
		g.counters[name] = r.live
	}
	addrs := cluster.SplitMembers(r.upAddr) // one address, or a fleet's member list
	switch len(addrs) {
	case 0:
		return nil, errors.New("empty upstream address")
	case 1:
		r.upAddr = addrs[0]
		p := g.pools[r.upAddr]
		if p == nil {
			p = resil.New(r.upAddr, g.opts.Upstream)
			g.pools[r.upAddr] = p
		}
		r.up = func(ctx context.Context, _ []byte, call resil.Call) (resil.Result, error) { return p.Do(ctx, call) }
	default:
		r.upAddr = fleetKey(addrs)
		r.up = g.fleetFor(addrs).Do
	}
	var err error
	if rc.Request != nil {
		var pk fingerprint.PairKey
		if r.req, pk, err = g.lane(&rc.Request.From, &rc.Request.To); err != nil {
			return nil, fmt.Errorf("request lane: %w", err)
		}
		r.rk = pk[:]
	}
	if rc.Reply != nil {
		var pk fingerprint.PairKey
		if r.rep, pk, err = g.lane(&rc.Reply.From, &rc.Reply.To); err != nil {
			return nil, fmt.Errorf("reply lane: %w", err)
		}
		if r.rk == nil {
			r.rk = pk[:]
		}
	}
	if r.rk == nil {
		// Passthrough route: pin by what it forwards to.
		r.rk = cluster.RouteKey(r.upKey, strconv.FormatUint(uint64(r.upOp), 10))
	}
	return r, nil
}

// lane returns the compiled lane for a declaration pair — and the
// pair's exact fingerprint key, which doubles as the route's fleet
// route key — loading the declarations into the session and assembling
// the transcoder on a fingerprint-cache miss. Called with g.mu held
// (reload path only — the data plane never compiles).
func (g *Gateway) lane(from, to *DeclConfig) (*transcode.Transcoder, fingerprint.PairKey, error) {
	mtF, err := g.Lower(from)
	if err != nil {
		return nil, fingerprint.PairKey{}, err
	}
	mtT, err := g.Lower(to)
	if err != nil {
		return nil, fingerprint.PairKey{}, err
	}
	key := fingerprint.Pair(fingerprint.Exact(mtF), fingerprint.Exact(mtT))
	if l := g.lanes[key]; l != nil {
		atomic.AddInt64(&g.live.LaneReuses, 1)
		return l, key, nil
	}
	g.sessMu.Lock()
	v, err := g.sess.Compare(from.universe(), from.Decl, to.universe(), to.Decl)
	g.sessMu.Unlock()
	if err != nil {
		return nil, key, err
	}
	switch v.Relation {
	case core.RelEquivalent, core.RelSubtypeAB:
	case core.RelSubtypeBA:
		return nil, key, fmt.Errorf("%s only converts toward %s (it is the supertype); swap the lane", to.Decl, from.Decl)
	default:
		return nil, key, fmt.Errorf("declarations do not match:\n%s", v.Explain)
	}
	l, err := g.sess.BuildTranscoder(v)
	if err != nil {
		return nil, key, err
	}
	atomic.AddInt64(&g.live.LaneCompiles, 1)
	if l.Refusal() != "" {
		atomic.AddInt64(&g.live.LaneUnsupported, 1)
	}
	g.lanes[key] = l
	return l, key, nil
}

// Lower loads the declaration's universe into the session (idempotent —
// universes are content-addressed) and lowers the named declaration.
func (g *Gateway) Lower(d *DeclConfig) (*mtype.Type, error) {
	g.sessMu.Lock()
	defer g.sessMu.Unlock()
	uni := d.universe()
	if g.sess.Universe(uni) == nil {
		if err := g.sess.LoadSource(uni, d.Lang, d.Model, d.Source); err != nil {
			return nil, err
		}
		if d.Script != "" {
			if _, err := g.sess.Annotate(uni, d.Script); err != nil {
				return nil, err
			}
		}
	}
	return g.sess.Mtype(uni, d.Decl)
}

// admit counts one call against its route and takes an admission slot
// for it; a shed is counted against the route as well as the gate.
func (g *Gateway) admit(r *route) error {
	atomic.AddInt64(&r.live.Requests, 1)
	err := g.chassis.Admit()
	if err != nil {
		atomic.AddInt64(&r.live.Sheds, 1)
	}
	return err
}

// checkBudget bounds one payload, typed with limits.ErrBudget.
func (g *Gateway) checkBudget(dir string, n int) error {
	if n > g.budget.MaxBytes {
		return limits.Exceededf("gateway: %s payload of %d bytes exceeds %d", dir, n, g.budget.MaxBytes)
	}
	return nil
}

// frontHandler returns the orb handler relaying one routed object key.
// One-way messages take the same path with the reply discarded by the
// orb server (the upstream leg is still request/reply, so ordering and
// backpressure hold).
func (g *Gateway) frontHandler(key string) orb.Handler {
	return func(ctx context.Context, op uint32, body []byte) ([]byte, error) {
		r := g.tab.Load().lookup(key, op)
		if r == nil {
			return nil, fmt.Errorf("gateway: no route for object %q op %d", key, op)
		}
		return g.relay(ctx, r, body)
	}
}

// relay serves one routed call: admit, budget-check, transcode the
// request lane, forward upstream through the resilient pool, budget-
// check and transcode the reply lane.
//
// ctx carries the client's propagated deadline budget: the upstream leg
// re-encodes the *remaining* time at send, so the budget the next hop
// sees is already decremented by the gateway's own admission, transcode,
// and queuing overhead. It is also canceled when the client disconnects
// or sends a cancel frame, which the orb client layer forwards upstream
// as a cancel frame of its own.
func (g *Gateway) relay(ctx context.Context, r *route, body []byte) ([]byte, error) {
	if err := g.admit(r); err != nil {
		return nil, err
	}
	defer g.chassis.Release()

	if err := g.checkBudget("request", len(body)); err != nil {
		atomic.AddInt64(&r.live.BudgetRejects, 1)
		return nil, err
	}
	out := body
	if r.req != nil {
		// The request lane's output only lives until the upstream leg
		// returns (hedged attempts copy it), so it lands in a pooled buffer
		// instead of allocating per call.
		buf := laneBufPool.Get().(*[]byte)
		defer putLaneBuf(buf)
		var err error
		if out, err = g.runLane(r, r.req, (*buf)[:0], body); err != nil {
			return nil, fmt.Errorf("gateway: request transcode: %w", err)
		}
		*buf = out
	}
	res, err := r.up(ctx, r.rk, resil.Call{Key: r.upKey, Op: r.upOp, Body: out})
	if err != nil {
		return nil, g.mapUpstreamErr(ctx, r, err)
	}
	reply := res.Reply
	if err := g.checkBudget("reply", len(reply)); err != nil {
		atomic.AddInt64(&r.live.BudgetRejects, 1)
		return nil, err
	}
	if r.rep != nil {
		if reply, err = g.runLane(r, r.rep, nil, reply); err != nil {
			return nil, fmt.Errorf("gateway: reply transcode: %w", err)
		}
	}
	if r.req == nil && r.rep == nil {
		atomic.AddInt64(&r.live.Passthrough, 1)
	}
	return reply, nil
}

// mapUpstreamErr classifies a failed upstream leg under the route's
// error counter. Typed expiries stay intact (the propagated budget was
// spent); a locally-expired budget or a vanished caller remaps to the
// matching typed error; everything else — Overloaded, ServerPanic, and
// generic failures — degrades to a tagged upstream error whose typed
// wrappers survive the error frame back to the client.
func (g *Gateway) mapUpstreamErr(ctx context.Context, r *route, err error) error {
	atomic.AddInt64(&r.live.UpstreamErrors, 1)
	switch {
	case errors.Is(err, orb.ErrExpired):
		// The upstream shed (or abandoned) the call because the
		// propagated budget was spent; keep the typed expiry intact.
		atomic.AddInt64(&g.live.Expired, 1)
	case errors.Is(ctx.Err(), context.DeadlineExceeded) || ctx.Err() == nil && orb.DeadlinePassed(ctx, time.Now()):
		// Our own budget-derived deadline ran out while the leg was in
		// flight, whether or not its timer has run: the caller's clock
		// expired, so answer with the typed expiry instead of a generic
		// upstream failure.
		atomic.AddInt64(&g.live.Expired, 1)
		return fmt.Errorf("%w: budget spent relaying via %s: %v", orb.ErrExpired, r.upAddr, err)
	case ctx.Err() != nil:
		// The client canceled or disconnected mid-relay; the upstream
		// leg was already aborted via a forwarded cancel frame.
		atomic.AddInt64(&g.live.Canceled, 1)
		return fmt.Errorf("%w: caller went away relaying via %s", orb.ErrCanceled, r.upAddr)
	}
	return fmt.Errorf("gateway: upstream %s: %w", r.upAddr, err)
}

// laneBufPool recycles request-lane output buffers; see relay. Oversized
// buffers are dropped so one jumbo payload doesn't pin its footprint
// forever.
var laneBufPool = sync.Pool{New: func() any { b := make([]byte, 0, 512); return &b }}

const maxPooledLaneBuf = 64 << 10

func putLaneBuf(b *[]byte) {
	if cap(*b) <= maxPooledLaneBuf {
		laneBufPool.Put(b)
	}
}

// runLane executes one lane under the route's latency counter and the
// counter of the tier that lane is, appending the output to dst; a nil
// dst asks for a fresh buffer of the lane's own size estimate.
func (g *Gateway) runLane(r *route, l *transcode.Transcoder, dst, payload []byte) (out []byte, err error) {
	start := time.Now()
	if dst == nil {
		out, err = l.Transcode(payload)
	} else {
		out, err = l.TranscodeAppend(dst, payload)
	}
	atomic.AddInt64((*int64)(&r.live.TranscodeTotal), int64(time.Since(start)))
	if err != nil {
		return nil, err
	}
	if l.Refusal() == "" {
		atomic.AddInt64(&r.live.FastTier, 1)
	} else {
		atomic.AddInt64(&r.live.TreeTier, 1)
	}
	return out, nil
}

// RouteStats is one route's counter snapshot. The JSON tags here and on
// UpstreamStats and Stats are the `mbird remote stats -gateway -json`
// scrape contract.
type RouteStats struct {
	Name string `json:"name"`
	// Requests counts calls matched to the route (admitted or shed).
	Requests int64 `json:"requests"`
	// FastTier / TreeTier count lane executions served wire-to-wire vs
	// decode→convert→encode; Passthrough counts calls forwarded with no
	// transcoding at all; Streamed counts requests relayed chunk-by-chunk
	// over the streaming lane instead of buffering.
	FastTier    int64 `json:"fast_tier"`
	TreeTier    int64 `json:"tree_tier"`
	Passthrough int64 `json:"passthrough"`
	Streamed    int64 `json:"streamed"`
	// TranscodeTotal is the cumulative in-gateway transcode time.
	TranscodeTotal time.Duration `json:"transcode_ns"`
	// UpstreamErrors counts upstream legs that failed after resil's
	// retries; Sheds counts admission sheds; BudgetRejects counts
	// payloads over the byte budget.
	UpstreamErrors int64 `json:"upstream_errors"`
	Sheds          int64 `json:"sheds"`
	BudgetRejects  int64 `json:"budget_rejects"`
}

// UpstreamStats is one upstream pool's counter snapshot.
type UpstreamStats struct {
	Addr string `json:"addr"`
	resil.Stats
	// BreakerTrips counts circuit-breaker openings (fleet members only —
	// single pools have no breaker).
	BreakerTrips int64 `json:"breaker_trips"`
}

// Stats is a point-in-time snapshot of the gateway's counters. The
// gateway counts into a live Stats of its own and each route into a live
// RouteStats; the lists, InFlight and Sheds are filled in when the
// snapshot is taken.
type Stats struct {
	// Routes holds the live table's per-route counters, sorted by name.
	Routes []RouteStats `json:"routes"`
	// Upstreams holds one entry per upstream pool, sorted by address.
	Upstreams []UpstreamStats `json:"upstreams"`
	// LaneCompiles counts declaration pairs compiled; LaneUnsupported
	// how many of those the wire-transcoder fuser refused (tree tier);
	// LaneReuses how many lane requests were served by the fingerprint
	// cache.
	LaneCompiles    int64 `json:"lane_compiles"`
	LaneUnsupported int64 `json:"lane_unsupported"`
	LaneReuses      int64 `json:"lane_reuses"`
	// InFlight is the number of admitted data-plane requests.
	InFlight int64 `json:"in_flight"`
	// Sheds counts admission sheds across all routes.
	Sheds int64 `json:"sheds"`
	// Expired counts relays abandoned because the client's propagated
	// time budget was spent (shed upstream or mid-relay); Canceled counts
	// relays aborted because the client canceled or disconnected.
	Expired  int64 `json:"expired"`
	Canceled int64 `json:"canceled"`
}

// Stats returns a snapshot of the gateway's counters.
func (g *Gateway) Stats() Stats {
	st := metrics.Load(&g.live)
	st.InFlight, st.Sheds = g.chassis.InFlight(), g.chassis.Sheds()
	for _, ops := range g.tab.Load().routes {
		for _, r := range ops {
			st.Routes = append(st.Routes, metrics.Load(r.live))
		}
	}
	sortRouteStats(st.Routes)
	g.mu.Lock()
	for addr, p := range g.pools {
		st.Upstreams = append(st.Upstreams, UpstreamStats{Addr: addr, Stats: p.Stats()})
	}
	// Fleet members report individually, so the existing stats schema
	// (a flat upstream list) spans the fleet unchanged.
	for _, f := range g.fleets {
		for _, m := range f.Stats().Members {
			st.Upstreams = append(st.Upstreams, UpstreamStats{Addr: m.Addr, Stats: m.Pool, BreakerTrips: m.BreakerTrips})
		}
	}
	g.mu.Unlock()
	sortUpstreamStats(st.Upstreams)
	return st
}

func sortRouteStats(rs []RouteStats) {
	sort.Slice(rs, func(i, j int) bool { return rs[i].Name < rs[j].Name })
}

func sortUpstreamStats(us []UpstreamStats) {
	sort.Slice(us, func(i, j int) bool { return us[i].Addr < us[j].Addr })
}

// Health is the gateway's readiness and load snapshot: the shared
// serving core plus the gateway's own two fields. Expired and Canceled
// add the relays that died mid-flight to what the listener itself shed.
type Health struct {
	serve.Health
	// Routes is the number of live table entries; Lanes the number of
	// cached compiled lanes.
	Routes int `json:"routes"`
	Lanes  int `json:"lanes"`
}

// Health returns the gateway's readiness and load snapshot.
func (g *Gateway) Health() Health {
	h := Health{Health: g.chassis.Health()}
	h.Expired += atomic.LoadInt64(&g.live.Expired)
	h.Canceled += atomic.LoadInt64(&g.live.Canceled)
	for _, ops := range g.tab.Load().routes {
		h.Routes += len(ops)
	}
	g.mu.Lock()
	h.Lanes = len(g.lanes)
	g.mu.Unlock()
	return h
}
