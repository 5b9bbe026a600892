// Package vclock abstracts the flow of time behind the live runtime
// (internal/rt) so scheduling logic can run against either the real wall
// clock or a deterministic fake.
//
// The runtime's coordinator period, lease heartbeats, sleep/backoff waits
// and shutdown retries all go through a Clock. In production the Clock is
// Real and behaves exactly like the time package. In tests it is a *Fake
// whose time only moves when the test calls Advance, which turns the
// runtime's timing-dependent paths (lost wakeups, T_SLEEP off-by-ones,
// over-reclaiming) into reproducible, wall-clock-free scenarios — the
// discipline Khatiri et al.'s work-stealing simulator applies to simulated
// time, applied to the live scheduler.
package vclock

import "time"

// Clock is the time source used by the live runtime. Implementations must
// be safe for concurrent use.
type Clock interface {
	// Now returns the current time.
	Now() time.Time
	// Sleep blocks the caller for d.
	Sleep(d time.Duration)
	// After returns a channel that receives the time once, after d.
	After(d time.Duration) <-chan time.Time
	// NewTicker returns a ticker firing every d.
	NewTicker(d time.Duration) Ticker
	// NewTimer returns a timer firing once after d.
	NewTimer(d time.Duration) Timer
}

// Ticker mirrors time.Ticker behind an interface.
type Ticker interface {
	// C returns the tick channel.
	C() <-chan time.Time
	// Stop stops the ticker. No more ticks are delivered after Stop
	// returns; a fake ticker also aborts any in-flight delivery.
	Stop()
	// Reset restarts the ticker — stopped or running — with period d: the
	// next tick arrives d from now, on the same channel. It lets a loop
	// that runs intermittently keep one ticker rather than make one per
	// round.
	Reset(d time.Duration)
}

// Timer mirrors time.Timer behind an interface. The Stop/Reset contract is
// the time package's: Reset should only be called on stopped or fired
// timers whose channel has been drained.
type Timer interface {
	// C returns the expiry channel.
	C() <-chan time.Time
	// Stop cancels the timer; it reports whether the timer was still
	// pending.
	Stop() bool
	// Reset re-arms the timer for d; it reports whether the timer was
	// still pending.
	Reset(d time.Duration) bool
}

// Real is the production Clock: a thin veneer over the time package.
type Real struct{}

// Now implements Clock.
func (Real) Now() time.Time { return time.Now() }

// Sleep implements Clock.
func (Real) Sleep(d time.Duration) { time.Sleep(d) }

// After implements Clock.
func (Real) After(d time.Duration) <-chan time.Time { return time.After(d) }

// NewTicker implements Clock.
func (Real) NewTicker(d time.Duration) Ticker { return realTicker{time.NewTicker(d)} }

// NewTimer implements Clock.
func (Real) NewTimer(d time.Duration) Timer { return realTimer{time.NewTimer(d)} }

type realTicker struct{ t *time.Ticker }

func (t realTicker) C() <-chan time.Time   { return t.t.C }
func (t realTicker) Stop()                 { t.t.Stop() }
func (t realTicker) Reset(d time.Duration) { t.t.Reset(d) }

type realTimer struct{ t *time.Timer }

func (t realTimer) C() <-chan time.Time        { return t.t.C }
func (t realTimer) Stop() bool                 { return t.t.Stop() }
func (t realTimer) Reset(d time.Duration) bool { return t.t.Reset(d) }
