package netserve

import (
	"time"
)

// Clock paces the transmission loop. Pace blocks until the next cycle of
// length d is due and reports where that cycle sits on the clock's
// deadline grid; it returns ok=false early when stop closes. restart
// starts a fresh grid at the call, so the cycle it releases comes one
// full d later: the pacer sets it when it leaves idle.
//
// Options.Clock == nil selects manual mode: nothing paces, and the
// owner drives cycles explicitly through NetServer.StepCycle. Tests use
// manual mode to place disk failures at exact cycle boundaries.
type Clock interface {
	Pace(d time.Duration, restart bool, stop <-chan struct{}) (tick Tick, ok bool)
}

// Tick is one released cycle's place on a Clock's deadline grid. A clock
// that keeps no deadlines (VirtualClock) returns the zero Tick.
type Tick struct {
	// Late is how far past its deadline the cycle was released.
	Late time.Duration
	// Next is the following cycle's deadline, which the pacer measures
	// the released cycle's slack against.
	Next time.Time
	// Moved reports that the release was a whole cycle or more late, so
	// the grid now starts at the release.
	Moved bool
}

// wallClock keeps an absolute deadline grid in real time, optionally
// sped up: cycle n of a grid started at t0 is due at t0 + n·d/speedup,
// so the cycle's own work and the timer's latency never lengthen the
// period. The pacer calls Pace once per cycle forever, so the one timer
// is allocated once and re-armed with Reset for the time left until the
// next deadline.
type wallClock struct {
	speedup float64
	// next is the deadline of the cycle the next Pace releases.
	next time.Time
	t    *time.Timer
}

// WallClock paces cycles in real time divided by speedup (1 = real
// time, 100 = hundred-fold fast-forward). Use for live demos where the
// client should observe genuine playback pacing.
func WallClock(speedup float64) Clock {
	if speedup <= 0 {
		speedup = 1
	}
	return &wallClock{speedup: speedup}
}

// Pace waits for the next deadline. A cycle whose work ran past it is
// released at once, on the same grid, so the long-run rate stays the
// playback rate; a release a whole period or more late moves the grid's
// start to the release instead, so a stall costs one late cycle rather
// than a burst of back-to-back catch-up cycles.
func (c *wallClock) Pace(d time.Duration, restart bool, stop <-chan struct{}) (Tick, bool) {
	period := time.Duration(float64(d) / c.speedup)
	if restart {
		c.next = time.Now().Add(period)
	}
	if wait := time.Until(c.next); wait > 0 {
		if c.t == nil {
			c.t = time.NewTimer(wait)
		} else {
			// The timer's channel is always drained on the true path, so
			// Reset without a Stop/drain dance is safe here.
			c.t.Reset(wait)
		}
		select {
		case <-c.t.C:
		case <-stop:
			if !c.t.Stop() {
				select {
				case <-c.t.C:
				default:
				}
			}
			return Tick{}, false
		}
	} else {
		select {
		case <-stop:
			return Tick{}, false
		default:
		}
	}
	now := time.Now()
	tick := Tick{Late: now.Sub(c.next)}
	if tick.Late >= period {
		c.next, tick.Moved = now, true
	}
	c.next = c.next.Add(period)
	tick.Next = c.next
	return tick, true
}

// virtualClock advances instantly: cycles run back to back as fast as
// the engine and the sockets allow. Use for throughput tests and load
// generation.
type virtualClock struct{}

// VirtualClock returns a clock that never sleeps and keeps no deadlines.
func VirtualClock() Clock { return virtualClock{} }

func (virtualClock) Pace(_ time.Duration, _ bool, stop <-chan struct{}) (Tick, bool) {
	select {
	case <-stop:
		return Tick{}, false
	default:
		return Tick{}, true
	}
}
