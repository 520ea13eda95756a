package cluster

import (
	"testing"

	"repro/internal/broker"
	"repro/internal/core"
	"repro/internal/proto"
	"repro/internal/testutil"
)

// The golden bytes were captured at the parent commit (5ff616f), before
// the declared codec replaced the hand-written one. status_seq: a record
// counting 1, 2, 3, … through every counter slot, marshaled against the
// parent's Mtype and read back by the parent's FetchStatus. Everything
// else: the parent's peer handler (and pushBody) on a node that had just
// compared ux/mix with uy/pair.
func TestGoldenStatusWire(t *testing.T) {
	testutil.Golden(t, statusRec, "status_seq", NodeStatus{
		Self: "10.0.0.1:7465", Members: []string{"10.0.0.1:7465", "10.0.0.2:7465", "ü:1"},
		PullsSent: 1, PushesSent: 2, PushErrs: 3, PushDrops: 4,
		PushesRecv: 5, PullsServed: 6, ListsServed: 7, Synced: 8, Expired: 9, Canceled: 10,
	})
	testutil.Golden(t, statusRec, "status_live", NodeStatus{
		Self: "b:2", Members: []string{"a:1", "b:2", "c:3"},
		PullsSent: 301, PushesSent: 302, PushErrs: 303, PushDrops: 304,
		PushesRecv: 305, PullsServed: 306, ListsServed: 307, Synced: 308,
	})
}

func TestGoldenWarmWire(t *testing.T) {
	entry := broker.WarmEntry{Kind: broker.KindVerdict, UA: "ux", DA: "mix", UB: "uy", DB: "pair", Relation: core.RelEquivalent, Steps: 7}
	loads := []broker.LoadRecord{
		{Universe: "ux", Lang: "c", Model: "ilp32", Source: srcMix},
		{Universe: "uy", Lang: "c", Model: "ilp32", Source: srcPair},
	}
	testutil.Golden(t, pullRec, "pull_hit", pullReply{Found: true, Relation: core.RelEquivalent, Steps: 7})
	testutil.Golden(t, pushRec, "push_req", pushRequest{Entry: entry, Loads: loads})
	testutil.Golden(t, proto.Count, "push_rep", 1)
	testutil.Golden(t, proto.Count, "list_req", 5)
	testutil.Golden(t, listRec, "list_rep", listReply{Loads: loads, Entries: []broker.WarmEntry{entry}})
}
