package broker

import (
	"testing"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/testutil"
)

// The golden bytes were captured at the parent commit (5ff616f), before
// the declared codec replaced the hand-written one. *_seq: a record of
// 1, 2, 3, … marshaled against the parent's Mtype and read back by the
// parent's client decoder, so every wire position is pinned to its Go
// field. Everything else: the parent's server handler — stats and health
// on a broker whose counters were all set distinct, the load and compare
// replies from real requests.
func TestGoldenStatsWire(t *testing.T) {
	testutil.Golden(t, statsRec, "stats_seq", Stats{
		CompareHits: 1, CompareMisses: 2, CompareCoalesced: 3, CompareRuns: 4, CompareTotal: 5, VerdictEntries: 6,
		ConvertHits: 7, ConvertMisses: 8, ConvertCoalesced: 9, Compiles: 10, CompileTotal: 11, ConverterEntries: 12,
		Evictions: 13, InFlight: 14, DeadlineExceeded: 15, Sheds: 16,
		XcodeHits: 17, XcodeMisses: 18, XcodeCoalesced: 19, XcodeCompiles: 20,
		XcodeUnsupported: 21, XcodeEntries: 22, FastConverts: 23, TreeConverts: 24,
		WarmFills: 25, WarmHits: 26, PeerPulls: 27, PeerPushes: 28,
	})
	testutil.Golden(t, statsRec, "stats_live", Stats{
		CompareHits: 101, CompareMisses: 102, CompareCoalesced: 103, CompareRuns: 104, CompareTotal: 105, VerdictEntries: 1,
		ConvertHits: 106, ConvertMisses: 107, ConvertCoalesced: 108, Compiles: 109, CompileTotal: 110, ConverterEntries: 2,
		Evictions: 111, InFlight: 112, DeadlineExceeded: 113, Sheds: 114,
		XcodeHits: 115, XcodeMisses: 116, XcodeCoalesced: 117, XcodeCompiles: 118,
		XcodeUnsupported: 119, XcodeEntries: 3, FastConverts: 120, TreeConverts: 121,
		WarmFills: 122, WarmHits: 123, PeerPulls: 124, PeerPushes: 125,
	})
}

func TestGoldenHealthWire(t *testing.T) {
	testutil.Golden(t, healthRec, "health_seq", Health{
		Health: serve.Health{
			Ready: true, InFlight: 2, MaxInFlight: 3, Sheds: 4, ConnSheds: 5, Panics: 6, Expired: 7, Canceled: 8,
			HeapBytes: 11, GCPauseNs: 12, NumGC: 13,
		},
		TranscoderEntries: 9, Peers: 10,
	})
	testutil.Golden(t, healthRec, "health_live", Health{
		Health:            serve.Health{Ready: true, InFlight: 2, MaxInFlight: 7, Sheds: 114, HeapBytes: 770048},
		TranscoderEntries: 3,
	})
}

func TestGoldenReplyWire(t *testing.T) {
	names := []string{"mix", "odd", "pair"}
	testutil.Golden(t, loadRec, "load_new", loadReply{Names: names})
	testutil.Golden(t, loadRec, "load_again", loadReply{Existed: true, Names: names})
	testutil.Golden(t, compareRec, "compare_run", Verdict{Relation: core.RelSubtypeBA, Steps: 20})
	testutil.Golden(t, compareRec, "compare_hit", Verdict{Relation: core.RelSubtypeBA, Steps: 20, Cached: true})
	testutil.Golden(t, compareRec, "compare_none", Verdict{
		Relation: core.RelNone, Steps: 3, Explain: "record ~ record: record leaf counts differ: 2 vs 1\n",
	})
}
