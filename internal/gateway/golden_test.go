package gateway

import (
	"testing"

	"repro/internal/proto"
	"repro/internal/resil"
	"repro/internal/serve"
	"repro/internal/testutil"
)

// The golden bytes were captured at the parent commit (5ff616f), before
// the declared codec replaced the hand-written one. *_seq: a record
// counting 1, 2, 3, … through every integer slot, marshaled against the
// parent's Mtype and read back by the parent's client decoder, so every
// wire position is pinned to its Go field. *_live: the parent's admin
// handler on a gateway with a fused route, a passthrough route and one
// upstream pool, its counters all set distinct.
func TestGoldenHealthWire(t *testing.T) {
	testutil.Golden(t, healthRec, "health_seq", Health{
		Health: serve.Health{
			Ready: true, InFlight: 2, MaxInFlight: 3, Sheds: 4, ConnSheds: 5, Panics: 6, Expired: 7, Canceled: 8,
			HeapBytes: 11, GCPauseNs: 12, NumGC: 13,
		},
		Routes: 9, Lanes: 10,
	})
	testutil.Golden(t, healthRec, "health_live", Health{
		Health: serve.Health{Ready: true, InFlight: 1, MaxInFlight: 9, Sheds: 220, Expired: 221, Canceled: 222, HeapBytes: 1007616},
		Routes: 2, Lanes: 2,
	})
}

func TestGoldenStatsWire(t *testing.T) {
	testutil.Golden(t, statsRec, "stats_seq", Stats{
		Routes: []RouteStats{
			{Name: "alpha", Requests: 1, FastTier: 2, TreeTier: 3, Passthrough: 4, Streamed: 5,
				TranscodeTotal: 6, UpstreamErrors: 7, Sheds: 8, BudgetRejects: 9},
			{Name: "béta", Requests: 10, FastTier: 11, TreeTier: 12, Passthrough: 13, Streamed: 14,
				TranscodeTotal: 15, UpstreamErrors: 16, Sheds: 17, BudgetRejects: 18},
		},
		Upstreams: []UpstreamStats{
			{Addr: "127.0.0.1:7465", Stats: resil.Stats{Conns: 19, Dials: 20, Discards: 21, Retries: 22,
				Overloads: 23, Hedges: 24, HedgeWins: 25, BudgetExhausted: 26}, BreakerTrips: 27},
		},
		LaneCompiles: 28, LaneUnsupported: 29, LaneReuses: 30, InFlight: 31, Sheds: 32, Expired: 33, Canceled: 34,
	})
	testutil.Golden(t, statsRec, "stats_live", Stats{
		Routes: []RouteStats{
			{Name: "fused", Requests: 201, FastTier: 202, TreeTier: 203, Passthrough: 204, Streamed: 205,
				TranscodeTotal: 206, UpstreamErrors: 207, Sheds: 208, BudgetRejects: 209},
			{Name: "pass", Requests: 210, FastTier: 211, TreeTier: 212, Passthrough: 213, Streamed: 214,
				TranscodeTotal: 215, UpstreamErrors: 216, Sheds: 217, BudgetRejects: 218},
		},
		Upstreams:    []UpstreamStats{{Addr: "127.0.0.1:9"}},
		LaneCompiles: 223, LaneUnsupported: 224, LaneReuses: 225, InFlight: 219, Sheds: 220, Expired: 221, Canceled: 222,
	})
}

func TestGoldenReloadWire(t *testing.T) {
	testutil.Golden(t, proto.Count, "reload_seq", 42)
	testutil.Golden(t, proto.Count, "reload_live", 2)
}
