// Package broker turns the per-invocation compile pipeline of
// internal/core into a long-running, concurrent stub-compilation service:
// the subsystem that lets one daemon compile a coercion plan once and
// serve conversions for it many times, across many connections.
//
// A Broker wraps a core.Session (which is not safe for concurrent use)
// behind a mutex and three fingerprint-keyed LRU caches:
//
//   - the verdict cache, keyed by the pair of *canonical* digests
//     (stable under Record/Choice child permutation and μ-unrolling), so
//     any two declaration pairs the comparer would relate identically
//     share one compare verdict;
//   - the converter cache, keyed by the pair of *exact* digests, holding
//     the closure-compiled converter and its plan. Exactness matters
//     here: a compiled converter consumes values in declaration order,
//     so record(int, real) and record(real, int) must not share one;
//   - the transcoder cache, also keyed by exact digests, holding the
//     fused CDR-bytes→CDR-bytes transcoder (internal/transcode) that
//     serves raw conversions without building value trees. A pair the
//     fuser refuses caches the tree rung in the same slot, so every raw
//     conversion is one lookup and one call, whichever tier runs it.
//
// The caches are content-addressed — the key depends only on the Mtype
// structure — so nothing in them is ever invalidated: a universe loaded
// with another annotation script lowers to new fingerprints.
//
// Concurrent requests for the same missing key are deduplicated
// (singleflight): one request compiles, the rest wait for its result, so
// a thundering herd on a cold pair costs one compile. Fills are further
// bounded by a worker semaphore. Per-broker counters (hits, misses,
// compiles, latency, evictions, in-flight) are exposed via Stats.
//
// Register any semantic hooks on the Session before constructing the
// Broker; the hook table is read concurrently during compilation.
package broker

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/convert"
	"repro/internal/core"
	"repro/internal/fingerprint"
	"repro/internal/metrics"
	"repro/internal/mtype"
	"repro/internal/plan"
	"repro/internal/serve"
	"repro/internal/value"
)

// Options configures a Broker. Zero values select the defaults.
type Options struct {
	// VerdictCacheSize bounds the compare-verdict LRU (default 4096).
	VerdictCacheSize int
	// ConverterCacheSize bounds the compiled-converter LRU (default 1024).
	ConverterCacheSize int
	// TranscoderCacheSize bounds the compiled wire-transcoder LRU
	// (default 1024). Like the converter cache it is keyed by the pair of
	// exact digests; a pair the fuser refuses is cached as its tree rung.
	TranscoderCacheSize int
	// Workers bounds concurrent cache fills — compare runs and converter
	// compilations (default GOMAXPROCS).
	Workers int
	// RequestTimeout bounds each protocol request served through
	// Handler: past it the client receives a deadline error while the
	// underlying work is abandoned to finish (and warm the caches) in
	// the background. 0 disables.
	RequestTimeout time.Duration
	// MaxInFlight bounds protocol requests admitted concurrently through
	// Handler (default 256). A request arriving with the limit reached
	// waits up to AdmitWait for a slot, then is shed with a typed
	// orb.ErrOverloaded instead of queuing unboundedly. Negative
	// disables admission control. Health and stats requests bypass it.
	MaxInFlight int
	// AdmitWait is how long an arriving request may wait for an
	// admission slot before being shed (default 5ms, clamped to
	// RequestTimeout when one is set). Brief waits absorb bursts;
	// anything longer is better spent on a client-side retry after
	// backoff against a hopefully less-loaded moment.
	AdmitWait time.Duration
}

func (o Options) withDefaults() Options {
	if o.VerdictCacheSize <= 0 {
		o.VerdictCacheSize = 4096
	}
	if o.ConverterCacheSize <= 0 {
		o.ConverterCacheSize = 1024
	}
	if o.TranscoderCacheSize <= 0 {
		o.TranscoderCacheSize = 1024
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.MaxInFlight == 0 {
		o.MaxInFlight = 256
	}
	if o.AdmitWait <= 0 {
		o.AdmitWait = 5 * time.Millisecond
	}
	if o.RequestTimeout > 0 && o.AdmitWait > o.RequestTimeout {
		o.AdmitWait = o.RequestTimeout
	}
	return o
}

// Broker is a concurrent stub-compilation service over one core.Session.
// All methods are safe for concurrent use.
type Broker struct {
	opts Options

	// sess is guarded by sessMu: Session lowering and comparison memoize
	// into shared maps, so every Session call is serialized.
	sessMu sync.Mutex
	sess   *core.Session

	verdicts   *sfCache[*verdictEntry]
	converters *sfCache[*convEntry]
	xcoders    *sfCache[*xcodeEntry]

	// printMemo caches fingerprints per lowered Mtype graph. The session
	// memoizes lowerings per declaration and a loaded universe never
	// changes, so pointer identity is content identity.
	printMu   sync.Mutex
	printMemo map[*mtype.Type]fingerprint.Print

	fillSem chan struct{}

	// chassis is the protocol-level admission gate plus the orb server
	// the broker is registered on (attached by Serve). Slots are held
	// until a request's work actually finishes, including work that
	// outlives its RequestTimeout in the background.
	chassis *serve.Chassis

	// Peer cache-warming state (internal/cluster installs the warmer).
	warmMu   sync.RWMutex
	warm     PeerWarmer
	recMu    sync.Mutex
	loadRecs map[string]LoadRecord
	recipes  map[recipeKey]WarmEntry

	// live holds the counters Stats reports, bumped in place with
	// sync/atomic; the caches count into it too.
	live Stats
}

// verdictEntry is a cached compare outcome, freed of the session-owned
// Match so cached verdicts are plain immutable data. warmed marks
// entries materialized by the peer cache-warming protocol.
type verdictEntry struct {
	relation core.Relation
	steps    int
	explain  string
	warmed   bool
}

// pairEntry is what every exact-pair cache entry records about its pair.
type pairEntry struct {
	relation core.Relation
	explain  string
	warmed   bool
}

// converts reports whether the pair converts A→B.
func (e *pairEntry) converts() bool {
	return e.relation == core.RelEquivalent || e.relation == core.RelSubtypeAB
}

// gate is the relation gate: nil when the pair converts, else why not.
func (e *pairEntry) gate(ua, da, ub, db string) error {
	switch {
	case e.converts():
		return nil
	case e.relation == core.RelSubtypeBA:
		return fmt.Errorf("broker: %s/%s only converts from %s/%s (B is the subtype); swap the pair", ua, da, ub, db)
	}
	return fmt.Errorf("broker: declarations do not match:\n%s", e.explain)
}

// convEntry is a cached compiled converter for one exact pair; conv is
// nil when the pair does not convert A→B.
type convEntry struct {
	pairEntry
	conv     convert.Converter
	planText string
}

// New returns a Broker serving the given session.
func New(sess *core.Session, opts Options) *Broker {
	opts = opts.withDefaults()
	b := &Broker{
		opts:      opts,
		sess:      sess,
		printMemo: make(map[*mtype.Type]fingerprint.Print),
		fillSem:   make(chan struct{}, opts.Workers),
		chassis:   serve.New(opts.MaxInFlight, opts.AdmitWait),
		loadRecs:  make(map[string]LoadRecord),
		recipes:   make(map[recipeKey]WarmEntry),
	}
	l := &b.live
	b.verdicts = newSFCache[*verdictEntry](opts.VerdictCacheSize, &l.CompareHits, &l.CompareMisses, &l.CompareCoalesced, &l.Evictions)
	b.converters = newSFCache[*convEntry](opts.ConverterCacheSize, &l.ConvertHits, &l.ConvertMisses, &l.ConvertCoalesced, &l.Evictions)
	b.xcoders = newSFCache[*xcodeEntry](opts.TranscoderCacheSize, &l.XcodeHits, &l.XcodeMisses, &l.XcodeCoalesced, &l.Evictions)
	return b
}

// --- declaration management (session passthrough, serialized) ---

// Load parses src in the given language ("c", "java", "idl" or "go") into a
// universe, then applies the optional annotation script. If the universe
// already exists the call is a no-op and existed is true: universes are
// immutable once loaded, so the load record replays them, and clients
// name universes by content hash to get idempotent loads.
func (b *Broker) Load(universe, lang, model, src, script string) (names []string, existed bool, err error) {
	b.sessMu.Lock()
	defer b.sessMu.Unlock()
	if b.sess.Universe(universe) != nil {
		// Record the sources even for a repeat load: a broker whose
		// universe arrived by other means (or before a restart) regains a
		// shippable record the first time a client re-loads it.
		b.noteLoadRecord(universe, lang, model, src, script)
		names, err := b.sess.DeclNames(universe)
		return names, true, err
	}
	if err = b.sess.LoadSource(universe, lang, model, src); err != nil {
		return nil, false, fmt.Errorf("broker: %w", err)
	}
	if script != "" {
		if _, err := b.sess.Annotate(universe, script); err != nil {
			return nil, false, err
		}
	}
	b.noteLoadRecord(universe, lang, model, src, script)
	names, err = b.sess.DeclNames(universe)
	return names, false, err
}

// HasUniverse reports whether a universe is loaded.
func (b *Broker) HasUniverse(universe string) bool {
	b.sessMu.Lock()
	defer b.sessMu.Unlock()
	return b.sess.Universe(universe) != nil
}

// DeclNames lists a universe's declarations, sorted.
func (b *Broker) DeclNames(universe string) ([]string, error) {
	b.sessMu.Lock()
	defer b.sessMu.Unlock()
	return b.sess.DeclNames(universe)
}

// Mtype lowers a declaration. The returned graph is immutable and may be
// read concurrently.
func (b *Broker) Mtype(universe, decl string) (*mtype.Type, error) {
	b.sessMu.Lock()
	defer b.sessMu.Unlock()
	return b.sess.Mtype(universe, decl)
}

// prints lowers both declarations (serialized) and fingerprints the
// resulting graphs (outside the session lock: Mtype graphs are immutable
// once lowered).
func (b *Broker) prints(ua, da, ub, db string) (mtA, mtB *mtype.Type, pa, pb fingerprint.Print, err error) {
	b.sessMu.Lock()
	mtA, err = b.sess.Mtype(ua, da)
	if err == nil {
		mtB, err = b.sess.Mtype(ub, db)
	}
	b.sessMu.Unlock()
	if err != nil {
		return nil, nil, fingerprint.Print{}, fingerprint.Print{}, err
	}
	return mtA, mtB, b.printOf(mtA), b.printOf(mtB), nil
}

// printMemoCap bounds the fingerprint memo; entries are tiny, and one per
// distinct lowered declaration suffices.
const printMemoCap = 1 << 16

// printOf fingerprints a lowered graph through the pointer-keyed memo, so
// the warm request path costs a map lookup rather than a hash refinement
// over the whole graph. Racing computations of the same graph are benign
// (the digest is deterministic).
func (b *Broker) printOf(t *mtype.Type) fingerprint.Print {
	b.printMu.Lock()
	p, ok := b.printMemo[t]
	b.printMu.Unlock()
	if ok {
		return p
	}
	p = fingerprint.Of(t)
	b.printMu.Lock()
	if len(b.printMemo) >= printMemoCap {
		for k := range b.printMemo {
			delete(b.printMemo, k)
			break
		}
	}
	b.printMemo[t] = p
	b.printMu.Unlock()
	return p
}

// Verdict is a broker compare result.
type Verdict struct {
	Relation core.Relation
	// Steps is the comparison step count of the run that produced the
	// cached verdict (0 is possible only for errors).
	Steps int
	// Explain holds the mismatch diagnosis when Relation is RelNone.
	Explain string
	// Cached reports whether the verdict came from the cache rather than
	// a compare run this request executed or waited on.
	Cached bool
}

// Compare decides the relation between two loaded declarations, serving
// from the canonical-fingerprint verdict cache when possible.
func (b *Broker) Compare(ua, da, ub, db string) (Verdict, error) {
	atomic.AddInt64(&b.live.InFlight, 1)
	defer atomic.AddInt64(&b.live.InFlight, -1)
	_, _, pa, pb, err := b.prints(ua, da, ub, db)
	if err != nil {
		return Verdict{}, err
	}
	key := fingerprint.Pair(pa.Canonical, pb.Canonical)
	filled := false // set by the fill closure, which only the filling call runs
	ent, cached, err := b.verdicts.do(key, func() (*verdictEntry, error) {
		// Before paying for a compare, ask the pair's ring owner: a
		// verdict is plain data, so a peer's cached result transfers the
		// computation outright.
		if w := b.peerWarmer(); w != nil {
			if rel, steps, explain, ok := w.PullVerdict(ua, da, ub, db); ok {
				atomic.AddInt64(&b.live.PeerPulls, 1)
				e := &verdictEntry{relation: rel, steps: steps, explain: explain, warmed: true}
				b.noteRecipe(KindVerdict, key, ua, da, ub, db, e)
				return e, nil
			}
		}
		b.fillSem <- struct{}{}
		defer func() { <-b.fillSem }()
		start := time.Now()
		v, err := b.compareLocked(ua, da, ub, db)
		atomic.AddInt64((*int64)(&b.live.CompareTotal), int64(time.Since(start)))
		atomic.AddInt64(&b.live.CompareRuns, 1)
		if err != nil {
			return nil, err
		}
		e := &verdictEntry{relation: v.Relation, steps: v.Steps, explain: v.Explain}
		b.noteRecipe(KindVerdict, key, ua, da, ub, db, e)
		filled = true
		return e, nil
	})
	if err != nil {
		return Verdict{}, err
	}
	if filled {
		b.pushAfterFill(KindVerdict, ua, da, ub, db)
	}
	if cached && ent.warmed {
		atomic.AddInt64(&b.live.WarmHits, 1)
	}
	return Verdict{Relation: ent.relation, Steps: ent.steps, Explain: ent.explain, Cached: cached}, nil
}

func (b *Broker) compareLocked(ua, da, ub, db string) (*core.Verdict, error) {
	b.sessMu.Lock()
	defer b.sessMu.Unlock()
	return b.sess.Compare(ua, da, ub, db)
}

// fillPair returns cache c's entry for the exact pair, building it from
// the pair's verdict on a miss — the one fill path of the converter and
// transcoder caches: bounded by the fill semaphore, timed into
// CompileTotal and counted in n, recorded as a recipe of the given kind.
// warm marks a fill performed by the peer cache-warming protocol rather
// than a client request: counted as a warm fill, and not pushed onward.
// build is a plain function, so a hit allocates no closure for it.
func fillPair[E any](b *Broker, c *sfCache[E], kind string, n *int64, ua, da, ub, db string, warm bool, build func(*Broker, *core.Verdict, pairEntry) (E, error)) (E, bool, error) {
	_, _, pa, pb, err := b.prints(ua, da, ub, db)
	if err != nil {
		var zero E
		return zero, false, err
	}
	key := fingerprint.Pair(pa.Exact, pb.Exact)
	filled := false
	ent, cached, err := c.do(key, func() (ent E, err error) {
		b.fillSem <- struct{}{}
		defer func() { <-b.fillSem }()
		start := time.Now()
		defer func() {
			atomic.AddInt64((*int64)(&b.live.CompileTotal), int64(time.Since(start)))
			atomic.AddInt64(n, 1)
		}()
		v, err := b.compareLocked(ua, da, ub, db)
		if err != nil {
			return ent, err
		}
		// build reads only the (now immutable) match and the session's
		// hook table, so it runs outside the session lock.
		if ent, err = build(b, v, pairEntry{v.Relation, v.Explain, warm}); err != nil {
			return ent, err
		}
		b.noteRecipe(kind, key, ua, da, ub, db, nil)
		if warm {
			atomic.AddInt64(&b.live.WarmFills, 1)
		}
		filled = !warm
		return ent, nil
	})
	if filled {
		b.pushAfterFill(kind, ua, da, ub, db)
	}
	return ent, cached, err
}

// converter returns the cached compiled converter entry for the exact
// pair, compiling it on a miss; a B<:A pair gets its plan text only.
func (b *Broker) converter(ua, da, ub, db string, warm bool) (*convEntry, bool, error) {
	return fillPair(b, b.converters, KindConverter, &b.live.Compiles, ua, da, ub, db, warm, buildConverter)
}

func buildConverter(b *Broker, v *core.Verdict, pe pairEntry) (*convEntry, error) {
	ent := &convEntry{pairEntry: pe}
	var p *plan.Plan
	var err error
	switch {
	case pe.converts():
		p, ent.conv, err = b.sess.BuildConverter(v)
	case pe.relation == core.RelSubtypeBA:
		// Convert only runs A→B: the plan is all anyone can ask of it.
		p, err = plan.Build(v.Match)
	}
	if p != nil {
		ent.planText = p.String()
	}
	return ent, err
}

// Convert converts a value of declaration A into one of declaration B
// using the cached compiled converter. The pair must be equivalent or
// A <: B; for a B <: A pair, swap the arguments.
func (b *Broker) Convert(ua, da, ub, db string, v value.Value) (value.Value, error) {
	atomic.AddInt64(&b.live.InFlight, 1)
	defer atomic.AddInt64(&b.live.InFlight, -1)
	ent, cached, err := b.converter(ua, da, ub, db, false)
	if err != nil {
		return nil, err
	}
	if cached && ent.warmed {
		atomic.AddInt64(&b.live.WarmHits, 1)
	}
	if err := ent.gate(ua, da, ub, db); err != nil {
		return nil, err
	}
	return ent.conv.Convert(v)
}

// PlanText returns the rendered coercion plan for the pair (compiling it
// if needed) — the daemon's window into what a conversion will do.
func (b *Broker) PlanText(ua, da, ub, db string) (string, error) {
	atomic.AddInt64(&b.live.InFlight, 1)
	defer atomic.AddInt64(&b.live.InFlight, -1)
	ent, cached, err := b.converter(ua, da, ub, db, false)
	if err != nil {
		return "", err
	}
	if cached && ent.warmed {
		atomic.AddInt64(&b.live.WarmHits, 1)
	}
	if ent.relation == core.RelNone {
		return "", ent.gate(ua, da, ub, db)
	}
	return ent.planText, nil
}

// Stats is a point-in-time snapshot of the broker's counters. The broker
// counts into a live Stats of its own; the entry counts and Sheds are
// read from the caches and the admission gate when the snapshot is taken.
type Stats struct {
	// Verdict cache.
	CompareHits, CompareMisses, CompareCoalesced int64
	CompareRuns                                  int64 // compare executions
	CompareTotal                                 time.Duration
	VerdictEntries                               int
	// Converter cache.
	ConvertHits, ConvertMisses, ConvertCoalesced int64
	Compiles                                     int64 // converter compilations
	CompileTotal                                 time.Duration
	ConverterEntries                             int
	// Wire-transcoder cache and data plane.
	XcodeHits, XcodeMisses, XcodeCoalesced int64
	XcodeCompiles                          int64 // transcoder compilations
	XcodeUnsupported                       int64 // pairs refused by the fuser (cached fallbacks)
	XcodeEntries                           int
	FastConverts                           int64 // conversions served wire-to-wire
	TreeConverts                           int64 // conversions served decode→convert→encode
	// Peer cache-warming (all zero on a standalone daemon).
	WarmFills  int64 // entries materialized by pushes received / startup sync
	WarmHits   int64 // request-path cache hits on warmed entries
	PeerPulls  int64 // verdict fills answered by the pair's ring owner
	PeerPushes int64 // fills handed to the warmer for push replication
	// Shared.
	Evictions int64
	InFlight  int64
	// DeadlineExceeded counts protocol requests that outlived the
	// server-side RequestTimeout.
	DeadlineExceeded int64
	// Sheds counts protocol requests refused by admission control
	// (MaxInFlight reached and no slot freed within AdmitWait).
	Sheds int64
}

// Stats returns a snapshot of the broker's counters.
func (b *Broker) Stats() Stats {
	st := metrics.Load(&b.live)
	st.VerdictEntries = b.verdicts.len()
	st.ConverterEntries = b.converters.len()
	st.XcodeEntries = b.xcoders.len()
	st.Sheds = b.chassis.Sheds()
	return st
}

// Health is the daemon's readiness and load snapshot: the shared serving
// core plus the broker's own two fields.
type Health struct {
	serve.Health
	// TranscoderEntries is the number of wire transcoders, fused or tree
	// rung, resident in the transcoder LRU.
	TranscoderEntries int64 `json:"transcoder_entries"`
	// Peers is the number of other daemons in this daemon's cluster (0
	// when running standalone).
	Peers int64 `json:"peers"`
}

// Health returns the daemon's readiness and load snapshot.
func (b *Broker) Health() Health {
	h := Health{Health: b.chassis.Health(), TranscoderEntries: int64(b.xcoders.len())}
	if w := b.peerWarmer(); w != nil {
		h.Peers = int64(w.Peers())
	}
	return h
}
