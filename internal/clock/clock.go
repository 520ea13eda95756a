// Package clock is the one seam between the serving runtime and time: a
// wait orb's server, resil or the breaker decides goes through a Clock.
package clock

import "time"

// Clock reads the time and schedules callbacks; tests substitute a fake.
type Clock interface {
	Now() time.Time
	AfterFunc(d time.Duration, f func()) Timer
}

// Timer is a callback AfterFunc scheduled; *time.Timer is one.
type Timer interface {
	Stop() bool
	Reset(d time.Duration) bool
}

// Real is the wall clock.
var Real Clock = wall{}

type wall struct{}

func (wall) Now() time.Time                            { return time.Now() }
func (wall) AfterFunc(d time.Duration, f func()) Timer { return time.AfterFunc(d, f) }
