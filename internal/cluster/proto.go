// Peer cache-warming protocol: the daemon-to-daemon ops spoken over the
// same orb/proto admin plane as the broker protocol, registered under
// their own object key on the same listener. Payloads are CDR against
// small protocol Mtypes, like every other mbird control surface.
package cluster

import (
	"repro/internal/broker"
	"repro/internal/core"
	"repro/internal/proto"
)

// ObjectKey is the orb object key the peer warm service is registered
// under (alongside broker.ObjectKey on the same server).
const ObjectKey = "mbird.cluster"

// Peer protocol ops.
const (
	// OpPull: Record(uA, declA, uB, declB) → Record(found, relation,
	// steps, explain). A cache-only read on the serving peer: no compare
	// ever runs on behalf of a pull, so pulls cannot amplify load.
	OpPull uint32 = iota + 1
	// OpPush: Record(entry, List(loadRec)) → Record(accepted). Delivers
	// one warm entry with the universe sources it needs; the receiver
	// loads missing universes and adopts the verdict or recompiles the
	// converter/transcoder off the request path.
	OpPush
	// OpList: Record(max) → Record(List(loadRec), List(entry)). The bulk
	// warm-sync read a (re)starting daemon drains from each peer before
	// accepting traffic.
	OpList
	// OpStatus: empty → the NodeStatus record (see statusRec). Feeds
	// `mbird cluster status`.
	OpStatus
)

// The peer protocol's records, each declared once: Mtype, encode and
// decode all derive from these field lists.
var (
	pullRec = proto.Declare(func(p *pullReply) []proto.Field {
		return []proto.Field{proto.Bool(&p.Found), proto.Num(&p.Relation), proto.Num(&p.Steps), proto.String(&p.Explain)}
	})
	loadRec = proto.Declare(func(r *broker.LoadRecord) []proto.Field {
		return []proto.Field{
			proto.String(&r.Universe), proto.String(&r.Lang), proto.String(&r.Model),
			proto.String(&r.Source), proto.String(&r.Script),
		}
	})
	entryRec = proto.Declare(func(e *broker.WarmEntry) []proto.Field {
		return []proto.Field{
			proto.String(&e.Kind), proto.String(&e.UA), proto.String(&e.DA), proto.String(&e.UB), proto.String(&e.DB),
			proto.Num(&e.Relation), proto.Num(&e.Steps), proto.String(&e.Explain),
		}
	})
	pushRec = proto.Declare(func(p *pushRequest) []proto.Field {
		return []proto.Field{entryRec.Field(&p.Entry), proto.List(&p.Loads, loadRec.Field)}
	})
	listRec = proto.Declare(func(l *listReply) []proto.Field {
		return []proto.Field{proto.List(&l.Loads, loadRec.Field), proto.List(&l.Entries, entryRec.Field)}
	})
	statusRec = proto.Declare(func(st *NodeStatus) []proto.Field {
		return []proto.Field{
			proto.String(&st.Self), proto.List(&st.Members, proto.String),
			proto.Num(&st.PullsSent), proto.Num(&st.PushesSent), proto.Num(&st.PushErrs), proto.Num(&st.PushDrops),
			proto.Num(&st.PushesRecv), proto.Num(&st.PullsServed), proto.Num(&st.ListsServed), proto.Num(&st.Synced),
			proto.Num(&st.Expired), proto.Num(&st.Canceled),
		}
	})
)

// pullReply is OpPull's reply: the serving peer's cached verdict, when
// it has one.
type pullReply struct {
	Found    bool
	Relation core.Relation
	Steps    int
	Explain  string
}

// pushRequest is OpPush's request: one warm entry and the universe
// sources the receiver needs to replay it.
type pushRequest struct {
	Entry broker.WarmEntry
	Loads []broker.LoadRecord
}

// listReply is OpList's reply: a peer's warm-state snapshot.
type listReply struct {
	Loads   []broker.LoadRecord
	Entries []broker.WarmEntry
}

// NodeStatus is one daemon's view of the warm protocol, served by
// OpStatus and rendered by `mbird cluster status`.
type NodeStatus struct {
	// Self is the daemon's advertised cluster address; Members is its
	// member list (agreement across nodes is checked by the CLI).
	Self    string
	Members []string
	// PullsSent counts owner pulls attempted on local verdict misses.
	PullsSent int64
	// PushesSent / PushErrs / PushDrops count warm pushes to successors:
	// delivered, failed in transport, and dropped on queue overflow.
	PushesSent, PushErrs, PushDrops int64
	// PushesRecv counts pushes accepted from peers; PullsServed and
	// ListsServed count peer reads answered.
	PushesRecv, PullsServed, ListsServed int64
	// Synced counts entries warmed by SyncFromPeers at startup.
	Synced int64
	// Expired counts requests the daemon's orb server shed or abandoned
	// because the caller's propagated deadline budget was spent; Canceled
	// counts in-flight requests aborted by client cancel frames. Both
	// come from the serving orb server's counters.
	Expired, Canceled int64
}
