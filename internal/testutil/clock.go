package testutil

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
)

// Eventually polls cond until it holds, failing t if it has not within
// five seconds; what names the state awaited. It waits for another
// goroutine, never for time to pass: a test that needs that advances a
// Clock.
func Eventually(t testing.TB, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// Clock is a clock.Clock a test drives. It starts at the wall time, so a
// deadline read from it and handed to code on real timers is not already
// past, and it moves only forward, in Advance.
type Clock struct {
	mu    sync.Mutex
	now   time.Time
	reads int // calls of Now
	armed []*fakeTimer
}

type fakeTimer struct {
	c  *Clock
	at time.Time
	f  func()
}

// NewClock returns a Clock reading the wall time now.
func NewClock() *Clock { return &Clock{now: time.Now()} }

func (c *Clock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reads++
	return c.now
}

// Reads counts the calls of Now, so that a test can wait for the code
// under test to stamp a time before advancing past the stamp.
func (c *Clock) Reads() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reads
}

func (c *Clock) AfterFunc(d time.Duration, f func()) clock.Timer {
	t := &fakeTimer{c: c, f: f}
	t.Reset(d)
	return t
}

// WaitArmed waits until at least n timers are armed, so that a test
// advances only once the code under test has armed its wait.
func (c *Clock) WaitArmed(t testing.TB, n int) {
	t.Helper()
	Eventually(t, fmt.Sprintf("%d armed timers", n), func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		return len(c.armed) >= n
	})
}

// Advance moves the clock d forward, then fires the timers due by then in
// deadline order, on the caller's goroutine. A timer armed meanwhile with a
// positive delay, by a callback or by the code one woke, is due after the
// new time: one Advance fires each such wait at most once.
func (c *Clock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
	for len(c.armed) > 0 {
		t := slices.MinFunc(c.armed, func(a, b *fakeTimer) int { return a.at.Compare(b.at) })
		if t.at.After(c.now) {
			break
		}
		t.disarm()
		c.mu.Unlock()
		t.f()
		c.mu.Lock()
	}
}

func (t *fakeTimer) Stop() bool {
	t.c.mu.Lock()
	defer t.c.mu.Unlock()
	return t.disarm()
}

// Reset re-arms t; with d ≤ 0 it fires at the next Advance, not at once.
func (t *fakeTimer) Reset(d time.Duration) bool {
	t.c.mu.Lock()
	defer t.c.mu.Unlock()
	armed := t.disarm()
	t.at = t.c.now.Add(max(d, 0))
	t.c.armed = append(t.c.armed, t)
	return armed
}

// disarm takes t out of the armed set and reports whether it was in it;
// the clock's lock is held.
func (t *fakeTimer) disarm() bool {
	i := slices.Index(t.c.armed, t)
	if i >= 0 {
		t.c.armed = slices.Delete(t.c.armed, i, i+1)
	}
	return i >= 0
}
