package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/orb"
)

// TestGate drives one gate per row: fill it to its cap, make one more
// arrival while (optionally) a holder releases after a delay, then check
// that a release frees exactly one slot.
func TestGate(t *testing.T) {
	for _, tc := range []struct {
		name         string
		max          int
		wait         time.Duration
		releaseAfter time.Duration // 0 = nobody releases while the arrival waits
		wantShed     bool
	}{
		{name: "burst absorbed inside admit-wait", max: 2, wait: 500 * time.Millisecond, releaseAfter: 5 * time.Millisecond},
		{name: "shed after admit-wait", max: 2, wait: 10 * time.Millisecond, wantShed: true},
		{name: "no wait sheds at once", max: 1, wait: 0, wantShed: true},
		{name: "unbounded never sheds", max: -1, wait: 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := NewGate(tc.max, tc.wait)
			held := int64(3) // an unbounded gate takes any number
			if tc.max > 0 {
				held = int64(tc.max)
			}
			for i := int64(0); i < held; i++ {
				if err := g.Admit(); err != nil {
					t.Fatalf("admit %d of %d: %v", i+1, held, err)
				}
			}
			if g.InFlight() != held || g.Cap() != max(tc.max, 0) {
				t.Fatalf("InFlight = %d, Cap = %d after %d admits", g.InFlight(), g.Cap(), held)
			}
			if tc.releaseAfter > 0 {
				time.AfterFunc(tc.releaseAfter, g.Release)
				held--
			}
			sheds := int64(0)
			if err := g.Admit(); tc.wantShed {
				if !errors.Is(err, orb.ErrOverloaded) {
					t.Fatalf("err = %v, want orb.ErrOverloaded", err)
				}
				sheds++
			} else if err != nil {
				t.Fatalf("arrival shed: %v", err)
			} else {
				held++
			}
			if g.Sheds() != sheds || g.InFlight() != held {
				t.Fatalf("after the arrival: Sheds = %d, InFlight = %d, want %d, %d", g.Sheds(), g.InFlight(), sheds, held)
			}
			if tc.max <= 0 {
				return
			}
			// The gate is full. One release admits one arrival — and only
			// one.
			g.Release()
			if err := g.Admit(); err != nil {
				t.Fatalf("admit after one release: %v", err)
			}
			if err := g.Admit(); !errors.Is(err, orb.ErrOverloaded) {
				t.Fatalf("second admit after one release: %v, want orb.ErrOverloaded", err)
			}
			if g.Sheds() != sheds+1 || g.InFlight() != held {
				t.Fatalf("at the end: Sheds = %d, InFlight = %d, want %d, %d", g.Sheds(), g.InFlight(), sheds+1, held)
			}
		})
	}
}

// TestGateConcurrent hammers one small gate from many goroutines (run
// under -race): occupancy never exceeds the cap, every admit is matched
// by its release, and admits plus sheds account for every arrival.
func TestGateConcurrent(t *testing.T) {
	const slots, workers, rounds = 4, 32, 200
	g := NewGate(slots, 50*time.Microsecond)
	var wg sync.WaitGroup
	var admitted, shed atomic.Int64
	var over atomic.Bool
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if err := g.Admit(); err != nil {
					shed.Add(1)
					continue
				}
				if g.InFlight() > slots {
					over.Store(true)
				}
				admitted.Add(1)
				g.Release()
			}
		}()
	}
	wg.Wait()
	if admitted.Load()+shed.Load() != workers*rounds || shed.Load() != g.Sheds() {
		t.Fatalf("admitted %d + shed %d (gate counted %d) != %d arrivals", admitted.Load(), shed.Load(), g.Sheds(), workers*rounds)
	}
	if over.Load() {
		t.Error("occupancy exceeded the cap")
	}
	if g.InFlight() != 0 || len(g.slots) != 0 {
		t.Fatalf("drained gate holds InFlight = %d, %d slots", g.InFlight(), len(g.slots))
	}
}

// TestChassisHealth: the snapshot reflects the gate and the attached
// server, and ServerStats answers before and after Attach.
func TestChassisHealth(t *testing.T) {
	c := New(3, time.Millisecond)
	if st := c.ServerStats(); st != (orb.ServerStats{}) {
		t.Fatalf("ServerStats before Attach = %+v", st)
	}
	if err := c.Admit(); err != nil {
		t.Fatal(err)
	}
	h := c.Health()
	if !h.Ready || h.InFlight != 1 || h.MaxInFlight != 3 || h.HeapBytes == 0 {
		t.Fatalf("unattached health = %+v", h)
	}
	srv, err := orb.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c.Attach(srv)
	if !c.Health().Ready {
		t.Fatal("serving chassis reports not ready")
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if c.Health().Ready {
		t.Fatal("drained chassis still reports ready")
	}
}
