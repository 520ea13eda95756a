// Peer cache-warming hooks: the broker side of the cluster protocol.
//
// Every broker cache entry is content-addressed, so an entry computed on
// one daemon is valid on every other — there is nothing to invalidate,
// only work to avoid repeating. Two kinds of state cross the wire:
//
//   - verdicts are plain data (relation, steps, diagnosis) and transfer
//     directly: a daemon that misses locally can adopt the owner's
//     cached verdict without running the compare;
//   - compiled converters and transcoders are closures over lowered
//     Mtype graphs and cannot be serialized. They warm by *recipe*: the
//     broker retains the (lang, model, source, script) record of every
//     universe it loads, and a warm entry names its pair plus those
//     records, so the receiver can reload the universes (idempotent —
//     clients name universes by content hash) and recompile off the
//     request path.
//
// The cluster layer (internal/cluster) implements PeerWarmer and
// installs itself with SetWarmer; the broker stays ignorant of ring
// topology and peer transport. Broker → warmer: PullVerdict on a verdict
// miss, PushCompiled after a request-path fill. Warmer → broker: the
// Warm* methods below, driven by pushes received and by startup sync.
package broker

import (
	"fmt"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/fingerprint"
)

// Warm entry kinds.
const (
	// KindVerdict is a compare verdict: plain data, transferred directly.
	KindVerdict = "verdict"
	// KindConverter is a compiled tree converter: warmed by recompiling
	// from the pair's recipe.
	KindConverter = "converter"
	// KindTranscoder is a wire transcoder, fused or tree rung: warmed by
	// recompiling from the pair's recipe.
	KindTranscoder = "transcoder"
)

// PeerWarmer is the hook a cluster layer installs to warm caches across
// daemons. Implementations must be safe for concurrent use and must not
// block: PullVerdict is called on the request path (bound it with a
// short timeout and fail open), and PushCompiled is called on the request
// path after a cache fill (hand the work to a background queue).
type PeerWarmer interface {
	// PullVerdict asks the pair's ring owner for a cached verdict,
	// reporting ok=false on any miss, timeout, or transport failure.
	PullVerdict(ua, da, ub, db string) (rel core.Relation, steps int, explain string, ok bool)
	// PushCompiled announces a request-path fill of the given kind so the
	// warmer can replicate the entry to the pair's ring successors.
	PushCompiled(kind, ua, da, ub, db string)
	// Peers reports the number of other daemons in the cluster.
	Peers() int
}

// SetWarmer installs (or, with nil, removes) the peer warmer.
func (b *Broker) SetWarmer(w PeerWarmer) {
	b.warmMu.Lock()
	b.warm = w
	b.warmMu.Unlock()
}

func (b *Broker) peerWarmer() PeerWarmer {
	b.warmMu.RLock()
	defer b.warmMu.RUnlock()
	return b.warm
}

// pushAfterFill hands a freshly filled entry to the warmer for push
// replication (counted whether or not the sends later succeed — the
// warmer tracks transport outcomes itself). Call it after sfCache.do has
// returned, from the call that ran the fill: the warmer reads the entry
// back out of the cache, and do publishes it only once the fill returns.
func (b *Broker) pushAfterFill(kind, ua, da, ub, db string) {
	if w := b.peerWarmer(); w != nil {
		atomic.AddInt64(&b.live.PeerPushes, 1)
		w.PushCompiled(kind, ua, da, ub, db)
	}
}

// LoadRecord is the shippable description of one loaded universe — the
// exact arguments a peer must replay through Load to own the same
// declarations. Universe names are content hashes on the client side, so
// replaying a record is idempotent.
type LoadRecord struct {
	Universe, Lang, Model, Source, Script string
}

// loadRecCap bounds retained load records; a slot is reclaimed
// arbitrarily past it (records are advisory — losing one only makes the
// affected entries unwarmable, never incorrect).
const loadRecCap = 1024

// noteLoadRecord retains the sources of a loaded universe for warm
// pushes. Called with sessMu held.
func (b *Broker) noteLoadRecord(universe, lang, model, src, script string) {
	b.recMu.Lock()
	defer b.recMu.Unlock()
	if _, ok := b.loadRecs[universe]; !ok && len(b.loadRecs) >= loadRecCap {
		for k := range b.loadRecs {
			delete(b.loadRecs, k)
			break
		}
	}
	b.loadRecs[universe] = LoadRecord{Universe: universe, Lang: lang, Model: model, Source: src, Script: script}
}

// LoadRecord returns the retained sources of a universe, if the broker
// saw them arrive through Load.
func (b *Broker) LoadRecord(universe string) (LoadRecord, bool) {
	b.recMu.Lock()
	defer b.recMu.Unlock()
	r, ok := b.loadRecs[universe]
	return r, ok
}

// WarmEntry describes one cache entry in warmable form: its kind, the
// pair of declaration names that (re)produce it, and — for verdicts —
// the verdict data itself, so list-based sync can transfer verdicts
// without a compare.
type WarmEntry struct {
	Kind           string
	UA, DA, UB, DB string
	Relation       core.Relation
	Steps          int
	Explain        string
}

type recipeKey struct {
	kind string
	key  fingerprint.PairKey
}

// recipeCap bounds the recipe book; like load records, recipes are
// advisory and a dropped one only narrows what can be warmed.
const recipeCap = 8192

// noteRecipe records how a cache entry was produced. ve carries the
// verdict data for KindVerdict entries (nil otherwise).
func (b *Broker) noteRecipe(kind string, key fingerprint.PairKey, ua, da, ub, db string, ve *verdictEntry) {
	e := WarmEntry{Kind: kind, UA: ua, DA: da, UB: ub, DB: db}
	if ve != nil {
		e.Relation = ve.relation
		e.Steps = ve.steps
		e.Explain = ve.explain
	}
	rk := recipeKey{kind: kind, key: key}
	b.recMu.Lock()
	defer b.recMu.Unlock()
	if _, ok := b.recipes[rk]; !ok && len(b.recipes) >= recipeCap {
		for k := range b.recipes {
			delete(b.recipes, k)
			break
		}
	}
	b.recipes[rk] = e
}

// WarmEntries snapshots up to max warmable entries together with the
// load records their universes need, for list-based sync (a restarted
// peer pulling the fleet's warm state). Entries whose universes lack a
// retained record are skipped — they could not be replayed remotely.
func (b *Broker) WarmEntries(max int) ([]LoadRecord, []WarmEntry) {
	b.recMu.Lock()
	defer b.recMu.Unlock()
	var entries []WarmEntry
	recs := make(map[string]LoadRecord)
	for _, e := range b.recipes {
		if max > 0 && len(entries) >= max {
			break
		}
		ra, okA := b.loadRecs[e.UA]
		rb, okB := b.loadRecs[e.UB]
		if !okA || !okB {
			continue
		}
		recs[e.UA] = ra
		recs[e.UB] = rb
		entries = append(entries, e)
	}
	out := make([]LoadRecord, 0, len(recs))
	for _, r := range recs {
		out = append(out, r)
	}
	return out, entries
}

// PeekVerdict is the cache-only verdict read peers use to answer pulls:
// no compare ever runs, and the hit/miss counters are untouched, so
// serving a peer never skews the local serving statistics.
func (b *Broker) PeekVerdict(ua, da, ub, db string) (Verdict, bool) {
	_, _, pa, pb, err := b.prints(ua, da, ub, db)
	if err != nil {
		return Verdict{}, false
	}
	ent, ok := b.verdicts.peek(fingerprint.Pair(pa.Canonical, pb.Canonical))
	if !ok {
		return Verdict{}, false
	}
	return Verdict{Relation: ent.relation, Steps: ent.steps, Explain: ent.explain, Cached: true}, true
}

// WarmVerdict adopts a verdict computed elsewhere, inserting it directly
// into the verdict cache (declined when the key is already present or
// filling). Both universes must be loaded. Reports whether the insert
// happened.
func (b *Broker) WarmVerdict(ua, da, ub, db string, rel core.Relation, steps int, explain string) (bool, error) {
	_, _, pa, pb, err := b.prints(ua, da, ub, db)
	if err != nil {
		return false, fmt.Errorf("broker: warm verdict: %w", err)
	}
	key := fingerprint.Pair(pa.Canonical, pb.Canonical)
	ent := &verdictEntry{relation: rel, steps: steps, explain: explain, warmed: true}
	if !b.verdicts.putIfAbsent(key, ent) {
		return false, nil
	}
	atomic.AddInt64(&b.live.WarmFills, 1)
	b.noteRecipe(KindVerdict, key, ua, da, ub, db, ent)
	return true, nil
}

// WarmConverter compiles the pair's tree converter off the request path
// (a no-op when already cached). The compile itself still runs locally —
// converters are closures and cannot cross the wire — but it runs now,
// on the warming path, instead of later, under a client's latency.
func (b *Broker) WarmConverter(ua, da, ub, db string) error {
	_, _, err := b.converter(ua, da, ub, db, true)
	return err
}

// WarmTranscoder assembles the pair's wire transcoder off the request
// path; a no-op when already cached.
func (b *Broker) WarmTranscoder(ua, da, ub, db string) error {
	_, _, err := b.transcoder(ua, da, ub, db, true)
	return err
}
