// Package cluster turns N independent mbirdd daemons into one logical
// broker. Everything the broker caches is content-addressed (verdicts by
// canonical fingerprint pair, compiled converters and transcoders by
// exact pair), so the cache state is embarrassingly shardable: an entry
// computed anywhere is valid everywhere and never needs invalidation.
// The cluster layer exploits that property three ways:
//
//   - a Client generalizes the internal/resil single-endpoint pool into
//     a multi-endpoint client: each request's content-derived route key
//     rendezvous-hashes to an owner daemon, with least-inflight
//     spillover to the key's replicas under load and orderly failover
//     down the rank when a member is unreachable;
//   - a Node speaks a peer cache-warming protocol daemon-to-daemon over
//     the same orb admin plane: a daemon missing locally pulls the
//     verdict from the pair's owner, a daemon that compiles pushes the
//     entry to the pair's successors, and a (re)starting daemon syncs
//     the fleet's warm state before accepting traffic — so a rolling
//     restart never re-pays a cold compile;
//   - both report per-member counters feeding `mbird cluster status`.
//
// Membership is static per process (a -cluster flag), rebalanced by
// rendezvous hashing: when a member joins or leaves, only the keys it
// owns change hands, and the departed member's pools are drained, not
// dropped.
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"hash/fnv"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// RouteKey derives the ring key for a request from its identifying
// strings — for broker pair operations, the four (universe, declaration)
// names. Universe names are content hashes on the client side, so the
// key is content-addressed: every client hashes the same pair to the
// same owner, which is what makes the owner's cache worth routing to.
// Parts are length-prefixed so ("ab","c") and ("a","bc") differ.
func RouteKey(parts ...string) []byte {
	h := sha256.New()
	var n [4]byte
	for _, p := range parts {
		binary.LittleEndian.PutUint32(n[:], uint32(len(p)))
		_, _ = h.Write(n[:])
		_, _ = h.Write([]byte(p))
	}
	return h.Sum(nil)
}

// Ring is an immutable rendezvous-hash (highest-random-weight) view of
// the member list. Every process that knows the same members computes
// the same owner for every key — no coordination, no token state, and a
// membership change only moves the keys the changed member scores
// highest on.
type Ring struct {
	members []string // sorted, deduplicated
}

// NewRing builds a ring over the given member addresses (order and
// duplicates are irrelevant).
func NewRing(members []string) *Ring {
	seen := make(map[string]bool, len(members))
	ms := make([]string, 0, len(members))
	for _, m := range members {
		if m == "" || seen[m] {
			continue
		}
		seen[m] = true
		ms = append(ms, m)
	}
	sort.Strings(ms)
	return &Ring{members: ms}
}

// SplitMembers parses a comma-separated member list: each member
// trimmed, empties dropped, order and duplicates left for NewRing.
func SplitMembers(list string) (out []string) {
	for _, m := range strings.Split(list, ",") {
		if m = strings.TrimSpace(m); m != "" {
			out = append(out, m)
		}
	}
	return out
}

// Members returns the ring's member addresses, sorted.
func (r *Ring) Members() []string { return slices.Clone(r.members) }

// Len returns the member count.
func (r *Ring) Len() int { return len(r.members) }

// score is the rendezvous weight of one member for one key: a 64-bit
// FNV-1a over the member address, a separator, and the key bytes. The
// hash is deterministic across processes and Go versions, which is what
// lets every client and every daemon agree on ownership independently.
func score(member string, key []byte) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(member))
	_, _ = h.Write([]byte{0})
	_, _ = h.Write(key)
	return h.Sum64()
}

// Owner returns the member with the highest rendezvous score for key,
// or "" on an empty ring.
func (r *Ring) Owner(key []byte) string {
	var best string
	var bestScore uint64
	for _, m := range r.members {
		if s := score(m, key); best == "" || s > bestScore || (s == bestScore && m < best) {
			best, bestScore = m, s
		}
	}
	return best
}

// Ranked returns all members ordered by descending rendezvous score for
// key: index 0 is the owner, the next entries are its successors (the
// replicas warm pushes target and spillover may use).
func (r *Ring) Ranked(key []byte) []string {
	type ranked struct {
		m string
		s uint64
	}
	rs := make([]ranked, len(r.members))
	for i, m := range r.members {
		rs[i] = ranked{m: m, s: score(m, key)}
	}
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].s != rs[j].s {
			return rs[i].s > rs[j].s
		}
		return rs[i].m < rs[j].m
	})
	out := make([]string, len(rs))
	for i, x := range rs {
		out[i] = x.m
	}
	return out
}

// Shares estimates each member's ownership share of the keyspace by
// sampling `samples` synthetic keys (1024 is plenty for a status
// display). Returns fractions summing to ~1; nil on an empty ring.
func (r *Ring) Shares(samples int) map[string]float64 {
	if len(r.members) == 0 || samples <= 0 {
		return nil
	}
	counts := make(map[string]int, len(r.members))
	for i := 0; i < samples; i++ {
		counts[r.Owner([]byte("share-sample-"+strconv.Itoa(i)))]++
	}
	out := make(map[string]float64, len(counts))
	for m, n := range counts {
		out[m] = float64(n) / float64(samples)
	}
	return out
}
