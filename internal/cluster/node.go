package cluster

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/broker"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/orb"
	"repro/internal/proto"
	"repro/internal/resil"
	"repro/internal/serve"
)

// The warm protocol's fixed tunings (each warm entry goes to the first
// replicas ranked members of its pair).
const (
	// pushQueue bounds the background push queue; a full queue drops the
	// push (counted) rather than blocking a cache fill.
	pushQueue = 1024
	// pullTimeout bounds an owner pull on the request path — a miss then
	// compiles locally, so this is the most latency a dead owner can add
	// to a cold compare.
	pullTimeout = 2 * time.Second
	// pushTimeout bounds one warm push RPC (the receiver compiles
	// synchronously).
	pushTimeout = 10 * time.Second
	// syncMax bounds the warm entries requested from each peer during
	// SyncFromPeers.
	syncMax = 4096
)

// NodeOptions configures a cluster Node. Zero values select the
// defaults.
type NodeOptions struct {
	// Resil tunes the peer-link pools. The node overrides nothing the
	// caller sets, but its own defaults are tighter than resil's: peers
	// are LAN neighbors, not WAN clients.
	Resil resil.Options
	// MaxPeerInFlight bounds concurrently served peer requests (default
	// 32); excess is shed with orb.ErrOverloaded, so a peer storm cannot
	// starve the client-facing data plane.
	MaxPeerInFlight int
}

func (o NodeOptions) withDefaults() NodeOptions {
	if o.MaxPeerInFlight <= 0 {
		o.MaxPeerInFlight = 32
	}
	if o.Resil.MaxAttempts == 0 {
		o.Resil.MaxAttempts = 2
	}
	if o.Resil.PoolSize == 0 {
		o.Resil.PoolSize = 2
	}
	if o.Resil.DialTimeout == 0 {
		o.Resil.DialTimeout = 2 * time.Second
	}
	return o
}

type pushJob struct {
	kind, ua, da, ub, db string
}

// Node is one daemon's membership in the cluster: it implements
// broker.PeerWarmer (installed on the local broker by NewNode), serves
// the peer warm protocol to other daemons, and maintains resilient
// links to every peer. All methods are safe for concurrent use.
type Node struct {
	self string
	b    *broker.Broker
	opts NodeOptions

	ring atomic.Pointer[Ring]

	mu     sync.Mutex
	peers  map[string]*resil.Client
	closed bool

	queue chan pushJob
	stop  chan struct{}
	done  chan struct{}

	// chassis is the peer service's own small admission gate — peer
	// traffic cannot crowd out the client-facing data plane — plus the
	// orb server the node is registered on (attached by Serve).
	chassis *serve.Chassis

	live NodeStatus // counters bumped with sync/atomic; Status loads it
}

// NewNode joins broker b to a cluster as the member advertised at self
// (which should appear in members). It installs itself as the broker's
// peer warmer and starts the background push worker; call Close to
// detach.
func NewNode(self string, members []string, b *broker.Broker, opts NodeOptions) *Node {
	opts = opts.withDefaults()
	n := &Node{
		self:  self,
		b:     b,
		opts:  opts,
		peers: make(map[string]*resil.Client),
		queue: make(chan pushJob, pushQueue),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
		// Peers retry with backoff themselves, so the gate never waits.
		chassis: serve.New(opts.MaxPeerInFlight, 0),
	}
	n.ring.Store(NewRing(members))
	b.SetWarmer(n)
	go n.pushWorker()
	return n
}

// Serve registers the node's peer warm service on an orb server (the
// same server that serves broker.ObjectKey).
func Serve(srv *orb.Server, n *Node) {
	n.chassis.Attach(srv)
	srv.Register(ObjectKey, n.Handler())
}

// Close detaches the node from its broker, stops the push worker, and
// closes every peer link.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	peers := n.peers
	n.peers = map[string]*resil.Client{}
	n.mu.Unlock()
	n.b.SetWarmer(nil)
	close(n.stop)
	<-n.done
	for _, p := range peers {
		_ = p.Close()
	}
	return nil
}

// Members returns the node's current member list, sorted.
func (n *Node) Members() []string { return n.ring.Load().Members() }

// Peers reports the number of other members (broker.PeerWarmer).
func (n *Node) Peers() int {
	c := 0
	for _, m := range n.ring.Load().Members() {
		if m != n.self {
			c++
		}
	}
	return c
}

// peerPool returns (lazily creating) the resilient link to one peer.
func (n *Node) peerPool(addr string) *resil.Client {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil
	}
	if p := n.peers[addr]; p != nil {
		return p
	}
	p := resil.New(addr, n.opts.Resil)
	n.peers[addr] = p
	return p
}

// othersRanked returns the pair's ring order with self removed.
func (n *Node) othersRanked(rk []byte) []string {
	ranked := n.ring.Load().Ranked(rk)
	out := ranked[:0]
	for _, m := range ranked {
		if m != n.self {
			out = append(out, m)
		}
	}
	return out
}

// --- broker.PeerWarmer ---

// PullVerdict asks the pair's best-ranked other member for its cached
// verdict (broker.PeerWarmer; called on the request path inside a
// verdict miss). One attempt against one peer, bounded by pullTimeout:
// on any failure the caller just compares locally.
func (n *Node) PullVerdict(ua, da, ub, db string) (core.Relation, int, string, bool) {
	others := n.othersRanked(RouteKey(ua, da, ub, db))
	if len(others) == 0 {
		return 0, 0, "", false
	}
	p := n.peerPool(others[0])
	if p == nil {
		return 0, 0, "", false
	}
	atomic.AddInt64(&n.live.PullsSent, 1)
	body := proto.MarshalStrings(ua, da, ub, db)
	ctx, cancel := context.WithTimeout(context.Background(), pullTimeout)
	defer cancel()
	reply, err := p.InvokeContext(ctx, ObjectKey, OpPull, body)
	if err != nil {
		return 0, 0, "", false
	}
	var rep pullReply
	if err := pullRec.Unmarshal(reply, &rep); err != nil || !rep.Found {
		return 0, 0, "", false
	}
	return rep.Relation, rep.Steps, rep.Explain, true
}

// PushCompiled enqueues a warm push of a freshly filled entry
// (broker.PeerWarmer; called inside cache fills, so it never blocks —
// a full queue drops the push and counts the drop).
func (n *Node) PushCompiled(kind, ua, da, ub, db string) {
	select {
	case n.queue <- pushJob{kind, ua, da, ub, db}:
	default:
		atomic.AddInt64(&n.live.PushDrops, 1)
	}
}

// pushWorker drains the push queue, replicating each entry to the
// pair's ring successors.
func (n *Node) pushWorker() {
	defer close(n.done)
	for {
		select {
		case <-n.stop:
			return
		case j := <-n.queue:
			n.pushOne(j)
		}
	}
}

// pushOne sends one warm entry to the first replicas ranked members of
// its pair (self excluded — self already holds the entry).
func (n *Node) pushOne(j pushJob) {
	rk := RouteKey(j.ua, j.da, j.ub, j.db)
	targets := n.ring.Load().Ranked(rk)
	targets = targets[:min(replicas, len(targets))]
	body, err := n.pushBody(j)
	if err != nil {
		atomic.AddInt64(&n.live.PushErrs, 1)
		return
	}
	for _, addr := range targets {
		if addr == n.self {
			continue
		}
		p := n.peerPool(addr)
		if p == nil {
			return
		}
		ctx, cancel := context.WithTimeout(context.Background(), pushTimeout)
		_, err := p.InvokeContext(ctx, ObjectKey, OpPush, body)
		cancel()
		if err != nil {
			atomic.AddInt64(&n.live.PushErrs, 1)
			continue
		}
		atomic.AddInt64(&n.live.PushesSent, 1)
	}
}

// pushBody marshals one warm entry with the universe sources the
// receiver needs to replay it.
func (n *Node) pushBody(j pushJob) ([]byte, error) {
	e := broker.WarmEntry{Kind: j.kind, UA: j.ua, DA: j.da, UB: j.ub, DB: j.db}
	if j.kind == broker.KindVerdict {
		v, ok := n.b.PeekVerdict(j.ua, j.da, j.ub, j.db)
		if !ok {
			return nil, errors.New("cluster: verdict evicted before push")
		}
		e.Relation, e.Steps, e.Explain = v.Relation, v.Steps, v.Explain
	}
	req := pushRequest{Entry: e}
	for _, u := range slices.Compact([]string{j.ua, j.ub}) {
		if r, ok := n.b.LoadRecord(u); ok {
			req.Loads = append(req.Loads, r)
		}
	}
	return pushRec.Marshal(&req)
}

// --- warm application (shared by push handling and sync) ---

// ensureUniverses replays load records the local broker is missing.
func (n *Node) ensureUniverses(recs []broker.LoadRecord) error {
	for _, r := range recs {
		if n.b.HasUniverse(r.Universe) {
			continue
		}
		if _, _, err := n.b.Load(r.Universe, r.Lang, r.Model, r.Source, r.Script); err != nil {
			return fmt.Errorf("cluster: warm load %s: %w", r.Universe, err)
		}
	}
	return nil
}

// applyEntry warms one entry into the local broker, reporting whether
// new cache state was materialized.
func (n *Node) applyEntry(e broker.WarmEntry) (bool, error) {
	switch e.Kind {
	case broker.KindVerdict:
		return n.b.WarmVerdict(e.UA, e.DA, e.UB, e.DB, e.Relation, e.Steps, e.Explain)
	case broker.KindConverter:
		return true, n.b.WarmConverter(e.UA, e.DA, e.UB, e.DB)
	case broker.KindTranscoder:
		return true, n.b.WarmTranscoder(e.UA, e.DA, e.UB, e.DB)
	default:
		return false, fmt.Errorf("cluster: unknown warm kind %q", e.Kind)
	}
}

// SyncFromPeers drains every peer's warm state into the local broker:
// universes load, verdicts transfer as data, converters and transcoders
// recompile locally — all before the daemon accepts client traffic, so
// a restarted member rejoins hot. Returns the number of entries warmed.
// Unreachable peers are skipped; an error is returned only when every
// peer failed (one live peer is enough to warm from).
func (n *Node) SyncFromPeers(ctx context.Context) (int, error) {
	others, warmed := 0, 0
	var lastErr error
	seen := map[string]bool{}
	for _, addr := range n.ring.Load().Members() {
		if addr == n.self {
			continue
		}
		others++
		recs, entries, err := n.listFrom(ctx, addr)
		if err != nil {
			lastErr = err
			continue
		}
		if err := n.ensureUniverses(recs); err != nil {
			lastErr = err
			continue
		}
		for _, e := range entries {
			k := e.Kind + "\x00" + e.UA + "\x00" + e.DA + "\x00" + e.UB + "\x00" + e.DB
			if seen[k] {
				continue
			}
			seen[k] = true
			if ok, err := n.applyEntry(e); err == nil && ok {
				warmed++
				atomic.AddInt64(&n.live.Synced, 1)
			}
		}
	}
	if others > 0 && lastErr != nil && warmed == 0 && len(seen) == 0 {
		return 0, fmt.Errorf("cluster: warm sync failed on all peers: %w", lastErr)
	}
	return warmed, nil
}

// listFrom fetches one peer's warm-state snapshot.
func (n *Node) listFrom(ctx context.Context, addr string) ([]broker.LoadRecord, []broker.WarmEntry, error) {
	p := n.peerPool(addr)
	if p == nil {
		return nil, nil, errors.New("cluster: node closed")
	}
	limit := syncMax
	body, err := proto.Count.Marshal(&limit)
	if err != nil {
		return nil, nil, err
	}
	reply, err := p.InvokeContext(ctx, ObjectKey, OpList, body)
	if err != nil {
		return nil, nil, err
	}
	var l listReply
	err = listRec.Unmarshal(reply, &l)
	return l.Loads, l.Entries, err
}

// Status snapshots the node's warm-protocol counters, plus the serving
// orb server's deadline counters so `mbird cluster status` shows where
// budget expiries land across the fleet. It is a pure counter read: a
// status poll never stops the world on a fleet member.
func (n *Node) Status() NodeStatus {
	st := metrics.Load(&n.live)
	st.Self, st.Members = n.self, n.Members()
	srv := n.chassis.ServerStats()
	st.Expired, st.Canceled = srv.Expired, srv.Canceled
	return st
}

// --- peer service (server side) ---

// Handler returns the orb handler serving the peer warm protocol, with
// its own small admission gate so peer traffic cannot crowd out the
// client-facing data plane.
func (n *Node) Handler() orb.Handler {
	return func(ctx context.Context, op uint32, body []byte) ([]byte, error) {
		if err := n.chassis.Admit(); err != nil {
			return nil, err
		}
		defer n.chassis.Release()
		switch op {
		case OpPull:
			args, err := proto.UnmarshalStrings(body, 4)
			if err != nil {
				return nil, err
			}
			atomic.AddInt64(&n.live.PullsServed, 1)
			var rep pullReply
			if v, ok := n.b.PeekVerdict(args[0], args[1], args[2], args[3]); ok {
				rep = pullReply{Found: true, Relation: v.Relation, Steps: v.Steps, Explain: v.Explain}
			}
			return pullRec.Marshal(&rep)

		case OpPush:
			var req pushRequest
			if err := pushRec.Unmarshal(body, &req); err != nil {
				return nil, err
			}
			accepted := 0
			if err := n.ensureUniverses(req.Loads); err == nil {
				if ok, err := n.applyEntry(req.Entry); err == nil && ok {
					accepted = 1
					atomic.AddInt64(&n.live.PushesRecv, 1)
				}
			}
			return proto.Count.Marshal(&accepted)

		case OpList:
			var max int
			if err := proto.Count.Unmarshal(body, &max); err != nil {
				return nil, err
			}
			if max <= 0 || max > 1<<16 {
				max = 1 << 16
			}
			atomic.AddInt64(&n.live.ListsServed, 1)
			var l listReply
			l.Loads, l.Entries = n.b.WarmEntries(max)
			return listRec.Marshal(&l)

		case OpStatus:
			st := n.Status()
			return statusRec.Marshal(&st)

		default:
			return nil, fmt.Errorf("cluster: unknown peer op %d", op)
		}
	}
}

// FetchStatus reads the peer-protocol status of the daemon behind t (a
// plain orb client or a resil pool) — the read `mbird cluster status`
// makes.
func FetchStatus(ctx context.Context, t proto.Transport) (NodeStatus, error) {
	reply, err := t.InvokeContext(ctx, ObjectKey, OpStatus, nil)
	if err != nil {
		return NodeStatus{}, err
	}
	var st NodeStatus
	err = statusRec.Unmarshal(reply, &st)
	return st, err
}
