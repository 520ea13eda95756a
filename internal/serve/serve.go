// Package serve is the serving chassis the mbird daemons share: the
// admission gate in front of their request paths, the health snapshot
// their admin planes report, and the daemon-process plumbing (orb server
// options, signal → drain → exit) of cmd/mbirdd and cmd/mbirdgw. The
// broker, the gateway and the cluster node configure a Chassis; none of
// them re-implements one.
package serve

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/orb"
	"repro/internal/proto"
)

// Gate is an admission gate: at most max requests hold a slot at once.
// A request arriving with every slot taken waits up to the gate's
// admit-wait for one — brief waits absorb bursts; anything longer is
// better spent on a client-side retry after backoff — and is then shed
// with a typed orb.ErrOverloaded instead of queuing unboundedly. The
// zero Gate is unbounded: it admits everything, and still counts what is
// in flight. All methods are safe for concurrent use.
type Gate struct {
	slots    chan struct{} // nil = unbounded
	wait     time.Duration
	inFlight atomic.Int64
	sheds    atomic.Int64
}

// NewGate returns a gate of max slots whose arrivals wait up to wait for
// one (0 sheds at once). max <= 0 returns an unbounded gate.
func NewGate(max int, wait time.Duration) *Gate {
	g := &Gate{wait: wait}
	if max > 0 {
		g.slots = make(chan struct{}, max)
	}
	return g
}

// Admit takes a slot or sheds the request. Every nil return must be
// paired with one Release, called when the request's work — including
// work that outlives its reply — has finished, so the cap bounds real
// load, not just visible load.
func (g *Gate) Admit() error {
	if g.slots != nil {
		select {
		case g.slots <- struct{}{}:
		default:
			if !g.awaitSlot() {
				g.sheds.Add(1)
				return fmt.Errorf("%w: %d requests already in flight", orb.ErrOverloaded, cap(g.slots))
			}
		}
	}
	g.inFlight.Add(1)
	return nil
}

// awaitSlot is Admit's slow path: the gate is full, so wait out the
// admit-wait for a slot to free.
func (g *Gate) awaitSlot() bool {
	if g.wait <= 0 {
		return false
	}
	t := time.NewTimer(g.wait)
	defer t.Stop()
	select {
	case g.slots <- struct{}{}:
		return true
	case <-t.C:
		return false
	}
}

// Release frees the slot one successful Admit took.
func (g *Gate) Release() {
	g.inFlight.Add(-1)
	if g.slots != nil {
		<-g.slots
	}
}

// InFlight is the number of admitted requests not yet released.
func (g *Gate) InFlight() int64 { return g.inFlight.Load() }

// Cap is the number of slots (0 when unbounded).
func (g *Gate) Cap() int { return cap(g.slots) }

// Sheds counts the requests Admit has refused.
func (g *Gate) Sheds() int64 { return g.sheds.Load() }

// Chassis is what a daemon serves requests through: its admission gate
// and, once attached, the orb server it is registered on — which is
// where the transport-level counters of its health snapshot come from.
type Chassis struct {
	*Gate
	srv atomic.Pointer[orb.Server]
}

// New returns a Chassis behind a gate of maxInFlight slots (see
// NewGate).
func New(maxInFlight int, admitWait time.Duration) *Chassis {
	return &Chassis{Gate: NewGate(maxInFlight, admitWait)}
}

// Attach records the orb server the daemon is registered on.
func (c *Chassis) Attach(srv *orb.Server) { c.srv.Store(srv) }

// Server returns the attached orb server (nil before Attach).
func (c *Chassis) Server() *orb.Server { return c.srv.Load() }

// ServerStats returns the attached server's transport-level counters
// (zero before Attach). Unlike Health it costs no stop-the-world.
func (c *Chassis) ServerStats() orb.ServerStats {
	if srv := c.srv.Load(); srv != nil {
		return srv.Stats()
	}
	return orb.ServerStats{}
}

// Health is the readiness and load snapshot every daemon reports, served
// without admission control so it answers even when the daemon is
// saturated. The JSON tags are the `mbird remote health -json` scrape
// contract.
type Health struct {
	// Ready is false while the serving orb server is draining or closed.
	Ready bool `json:"ready"`
	// InFlight is the number of admitted requests; MaxInFlight the
	// admission cap (0 when admission control is disabled).
	InFlight    int64 `json:"in_flight"`
	MaxInFlight int   `json:"max_in_flight"`
	// Sheds counts requests refused by admission control; ConnSheds those
	// refused by the orb per-connection concurrency cap.
	Sheds     int64 `json:"sheds"`
	ConnSheds int64 `json:"conn_sheds"`
	// Panics counts handler panics the orb server recovered.
	Panics int64 `json:"panics"`
	// Expired counts requests shed or abandoned because their propagated
	// deadline budget was spent; Canceled counts in-flight requests
	// aborted by client cancel frames.
	Expired  int64 `json:"expired"`
	Canceled int64 `json:"canceled"`
	// HeapBytes is the process's in-use heap (runtime HeapInuse);
	// GCPauseNs the cumulative stop-the-world GC pause time; NumGC the
	// completed GC cycle count. `mbird remote health` prints them; their
	// deltas across a run attribute GC pressure to the request path.
	HeapBytes int64 `json:"heap_bytes"`
	GCPauseNs int64 `json:"gc_pause_ns"`
	NumGC     int64 `json:"num_gc"`
}

// Fields declares the health record's wire order: the shared load
// counters, then the daemon's own fields, then the memory telemetry —
// the order both daemons' health records have always had.
func (h *Health) Fields(own ...proto.Field) []proto.Field {
	fs := append([]proto.Field{
		proto.Bool(&h.Ready), proto.Num(&h.InFlight), proto.Num(&h.MaxInFlight),
		proto.Num(&h.Sheds), proto.Num(&h.ConnSheds), proto.Num(&h.Panics),
		proto.Num(&h.Expired), proto.Num(&h.Canceled),
	}, own...)
	return append(fs, proto.Num(&h.HeapBytes), proto.Num(&h.GCPauseNs), proto.Num(&h.NumGC))
}

// Health snapshots the chassis. It reads runtime.MemStats, which stops
// the world briefly: poll it at scrape frequency, not per request.
func (c *Chassis) Health() Health {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	st := c.ServerStats()
	srv := c.srv.Load()
	return Health{
		Ready:       srv == nil || !srv.Draining(),
		InFlight:    c.InFlight(),
		MaxInFlight: c.Cap(),
		Sheds:       c.Sheds(),
		ConnSheds:   st.Shed,
		Panics:      st.Panics,
		Expired:     st.Expired,
		Canceled:    st.Canceled,
		HeapBytes:   int64(m.HeapInuse),
		GCPauseNs:   int64(m.PauseTotalNs),
		NumGC:       int64(m.NumGC),
	}
}
