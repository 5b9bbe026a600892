package vclock

import (
	"sort"
	"sync"
	"time"
)

// Fake is a deterministic Clock for tests. Time stands still until the
// test calls Advance; Advance fires every due waiter in deadline order
// (ties broken by registration order), so a fixed sequence of Advance
// calls produces a fixed sequence of timer firings.
//
// Delivery semantics are chosen for lockstep testing of goroutine loops:
//
//   - Tickers deliver synchronously on an unbuffered channel. Advance
//     blocks until the consumer goroutine receives the tick (or the ticker
//     is stopped). Because a loop of the form `for { select { <-stop;
//     <-ticker } }` only returns to the receive after fully processing the
//     previous tick, a second Advance cannot overtake an unprocessed tick:
//     consecutive Advance calls serialise the consumer's iterations. This
//     is the "advance only when the consumer has quiesced" rule that makes
//     coordinator-driven scheduling tests reproducible.
//   - Timers, After and Sleep deliver into a buffered channel (capacity 1)
//     exactly like the time package, because their consumers may abandon
//     the wait (e.g. a select that chose another branch).
//
// Unlike time.Ticker, a Fake ticker does not drop ticks: Advance(10*p)
// over a period-p ticker delivers 10 ticks, one at a time. Tests advance
// in explicit steps, so this is the behaviour they want.
//
// A Fake additionally exposes BlockUntil, which waits for a number of
// waiters (tickers plus pending timers/sleeps) to be registered — the way
// a test synchronises with goroutines that create their tickers after
// being spawned.
type Fake struct {
	advMu sync.Mutex // serialises Advance calls

	mu      sync.Mutex
	cond    *sync.Cond // broadcast when the waiter set changes
	now     time.Time
	seq     int64
	waiters []*fakeWaiter
}

type fakeWaiter struct {
	at      time.Time
	seq     int64
	period  time.Duration // > 0 for tickers
	ch      chan time.Time
	stopped chan struct{} // closed by Stop; aborts synchronous delivery
	dead    bool          // lazily removed from the registry
}

// fakeEpoch is the fixed start time of every Fake: an arbitrary real
// instant so UnixNano-based lease timestamps look plausible.
var fakeEpoch = time.Unix(1_700_000_000, 0)

// NewFake returns a Fake clock at a fixed epoch.
func NewFake() *Fake {
	f := &Fake{now: fakeEpoch}
	f.cond = sync.NewCond(&f.mu)
	return f
}

// Now implements Clock.
func (f *Fake) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

// register adds a waiter due at now+d.
func (f *Fake) register(d, period time.Duration, buffered bool) *fakeWaiter {
	cap := 0
	if buffered {
		cap = 1
	}
	f.mu.Lock()
	f.seq++
	w := &fakeWaiter{
		at:      f.now.Add(d),
		seq:     f.seq,
		period:  period,
		ch:      make(chan time.Time, cap),
		stopped: make(chan struct{}),
	}
	f.waiters = append(f.waiters, w)
	f.mu.Unlock()
	f.cond.Broadcast()
	return w
}

// rearm retires old (as stop does) and registers a waiter due at now+d
// that delivers on old's channel, which callers hold via C(). It reports
// whether old was still pending.
func (f *Fake) rearm(old *fakeWaiter, d, period time.Duration) (*fakeWaiter, bool) {
	pending := f.stop(old)
	f.mu.Lock()
	f.seq++
	w := &fakeWaiter{
		at:      f.now.Add(d),
		seq:     f.seq,
		period:  period,
		ch:      old.ch,
		stopped: make(chan struct{}),
	}
	f.waiters = append(f.waiters, w)
	f.mu.Unlock()
	f.cond.Broadcast()
	return w, pending
}

// stop marks w dead and aborts any in-flight synchronous delivery. It
// reports whether w was still pending (not yet fired, for one-shots).
func (f *Fake) stop(w *fakeWaiter) bool {
	f.mu.Lock()
	pending := !w.dead
	if !w.dead {
		w.dead = true
		close(w.stopped)
	}
	f.mu.Unlock()
	f.cond.Broadcast()
	return pending
}

// Sleep implements Clock: it blocks until Advance moves time past d.
func (f *Fake) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	w := f.register(d, 0, true)
	<-w.ch
}

// After implements Clock.
func (f *Fake) After(d time.Duration) <-chan time.Time {
	return f.register(d, 0, true).ch
}

// NewTicker implements Clock.
func (f *Fake) NewTicker(d time.Duration) Ticker {
	if d <= 0 {
		panic("vclock: non-positive ticker period")
	}
	return &fakeTicker{f: f, w: f.register(d, d, false)}
}

// NewTimer implements Clock.
func (f *Fake) NewTimer(d time.Duration) Timer {
	return &fakeTimer{f: f, w: f.register(d, 0, true)}
}

// fakeTicker's waiter changes on Reset, so one goroutine at a time may
// Stop and Reset it; C is fixed for the ticker's life.
type fakeTicker struct {
	f *Fake
	w *fakeWaiter
}

func (t *fakeTicker) C() <-chan time.Time { return t.w.ch }
func (t *fakeTicker) Stop()               { t.f.stop(t.w) }

func (t *fakeTicker) Reset(d time.Duration) {
	if d <= 0 {
		panic("vclock: non-positive ticker period")
	}
	t.w, _ = t.f.rearm(t.w, d, d)
}

type fakeTimer struct {
	f  *Fake
	mu sync.Mutex
	w  *fakeWaiter
}

func (t *fakeTimer) C() <-chan time.Time {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.w.ch
}

func (t *fakeTimer) Stop() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.f.stop(t.w)
}

// Reset re-arms the timer. Per the Timer contract the caller has drained
// the channel, so the old waiter is discarded and a fresh one (reusing the
// same channel) is registered.
func (t *fakeTimer) Reset(d time.Duration) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	var pending bool
	t.w, pending = t.f.rearm(t.w, d, 0)
	return pending
}

// Waiters returns the number of live registered waiters (tickers plus
// pending one-shots).
func (f *Fake) Waiters() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.liveLocked()
}

func (f *Fake) liveLocked() int {
	n := 0
	for _, w := range f.waiters {
		if !w.dead {
			n++
		}
	}
	return n
}

// BlockUntil blocks until at least n waiters are registered. Tests use it
// to wait for freshly spawned goroutines (coordinator, sweeper) to reach
// their ticker before the first Advance.
func (f *Fake) BlockUntil(n int) {
	f.mu.Lock()
	for f.liveLocked() < n {
		f.cond.Wait()
	}
	f.mu.Unlock()
}

// Advance moves the fake time forward by d, firing every waiter whose
// deadline falls in the window, in (deadline, registration) order.
// Synchronous (ticker) deliveries block until received or stopped, so
// when Advance returns every fired consumer has at least received its
// tick, and no consumer has an unprocessed tick older than the previous
// Advance. Concurrent Advance calls are serialised.
func (f *Fake) Advance(d time.Duration) {
	if d < 0 {
		panic("vclock: negative advance")
	}
	f.advMu.Lock()
	defer f.advMu.Unlock()

	f.mu.Lock()
	target := f.now.Add(d)
	for {
		w := f.nextDueLocked(target)
		if w == nil {
			break
		}
		if w.at.After(f.now) {
			f.now = w.at
		}
		tm := f.now
		if w.period > 0 {
			w.at = w.at.Add(w.period)
		} else {
			w.dead = true
			// One-shot: leave stopped open; nobody is blocked on it.
		}
		sync := w.period > 0
		f.mu.Unlock()
		if sync {
			select {
			case w.ch <- tm:
			case <-w.stopped:
			}
		} else {
			select {
			case w.ch <- tm:
			default: // buffered and already full: drop, like time.Timer
			}
		}
		f.mu.Lock()
	}
	f.now = target
	f.compactLocked()
	f.mu.Unlock()
	f.cond.Broadcast()
}

// nextDueLocked returns the live waiter with the earliest deadline ≤
// target, ties broken by registration order, or nil.
func (f *Fake) nextDueLocked(target time.Time) *fakeWaiter {
	var best *fakeWaiter
	for _, w := range f.waiters {
		if w.dead || w.at.After(target) {
			continue
		}
		if best == nil || w.at.Before(best.at) || (w.at.Equal(best.at) && w.seq < best.seq) {
			best = w
		}
	}
	return best
}

// compactLocked drops dead waiters, keeping registration order.
func (f *Fake) compactLocked() {
	live := f.waiters[:0]
	for _, w := range f.waiters {
		if !w.dead {
			live = append(live, w)
		}
	}
	f.waiters = live
	sort.SliceStable(f.waiters, func(i, j int) bool { return f.waiters[i].seq < f.waiters[j].seq })
}
