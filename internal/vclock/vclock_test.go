package vclock

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestRealImplementsClock(t *testing.T) {
	var c Clock = Real{}
	if d := time.Since(c.Now()); d < 0 || d > time.Minute {
		t.Fatalf("Real.Now drifted from time.Now by %v", d)
	}
	tk := c.NewTicker(time.Millisecond)
	defer tk.Stop()
	for _, when := range []string{"", " after Stop and Reset"} {
		select {
		case <-tk.C():
		case <-time.After(5 * time.Second):
			t.Fatalf("real ticker never fired%s", when)
		}
		tk.Stop()
		tk.Reset(time.Millisecond)
	}
	tm := c.NewTimer(time.Millisecond)
	select {
	case <-tm.C():
	case <-time.After(5 * time.Second):
		t.Fatal("real timer never fired")
	}
	if tm.Stop() {
		t.Fatal("Stop on a fired timer reported pending")
	}
}

func TestFakeNowFrozenUntilAdvance(t *testing.T) {
	f := NewFake()
	t0 := f.Now()
	if t1 := f.Now(); !t1.Equal(t0) {
		t.Fatalf("time moved without Advance: %v -> %v", t0, t1)
	}
	f.Advance(3 * time.Second)
	if got, want := f.Now().Sub(t0), 3*time.Second; got != want {
		t.Fatalf("advanced %v, want %v", got, want)
	}
}

func TestFakeSleepWakesAtDeadline(t *testing.T) {
	f := NewFake()
	done := make(chan time.Duration)
	go func() {
		start := f.Now()
		f.Sleep(10 * time.Millisecond)
		done <- f.Now().Sub(start)
	}()
	f.BlockUntil(1)
	f.Advance(10 * time.Millisecond)
	if got := <-done; got != 10*time.Millisecond {
		t.Fatalf("sleeper woke after %v, want 10ms", got)
	}
}

func TestFakeSleepZeroReturnsImmediately(t *testing.T) {
	f := NewFake()
	f.Sleep(0) // must not require an Advance
	f.Sleep(-time.Second)
}

func TestFakeAfterFiresOnce(t *testing.T) {
	f := NewFake()
	ch := f.After(time.Second)
	select {
	case <-ch:
		t.Fatal("After fired before Advance")
	default:
	}
	f.Advance(2 * time.Second)
	tm := <-ch
	if want := f.Now().Add(-time.Second); !tm.Equal(want) {
		t.Fatalf("After delivered %v, want the deadline %v", tm, want)
	}
	f.Advance(10 * time.Second)
	select {
	case <-ch:
		t.Fatal("one-shot After fired twice")
	default:
	}
}

func TestFakeTickerDeliversEveryTickInOrder(t *testing.T) {
	f := NewFake()
	tk := f.NewTicker(time.Millisecond)
	defer tk.Stop()
	var got []time.Time
	var mu sync.Mutex
	done := make(chan struct{})
	go func() {
		for i := 0; i < 10; i++ {
			tm := <-tk.C()
			mu.Lock()
			got = append(got, tm)
			mu.Unlock()
		}
		close(done)
	}()
	// One big Advance must deliver all 10 ticks (fake tickers never drop),
	// one at a time, in deadline order.
	f.Advance(10 * time.Millisecond)
	<-done
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 10 {
		t.Fatalf("got %d ticks, want 10", len(got))
	}
	for i, tm := range got {
		want := fakeEpoch.Add(time.Duration(i+1) * time.Millisecond)
		if !tm.Equal(want) {
			t.Fatalf("tick %d at %v, want %v", i, tm, want)
		}
	}
}

func TestFakeTickerStopAbortsDelivery(t *testing.T) {
	f := NewFake()
	tk := f.NewTicker(time.Millisecond)
	// Nobody is receiving: Advance would block on the synchronous delivery
	// forever unless Stop aborts it.
	done := make(chan struct{})
	go func() {
		f.Advance(time.Millisecond)
		close(done)
	}()
	time.Sleep(10 * time.Millisecond) // let Advance reach the delivery select
	tk.Stop()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Advance still blocked after Stop")
	}
}

func TestFakeAdvanceSerialisesTickerConsumer(t *testing.T) {
	// The lockstep property: when Advance returns, the consumer has
	// received the tick, so a counter it increments per tick is exact.
	f := NewFake()
	tk := f.NewTicker(time.Second)
	defer tk.Stop()
	var ticks atomic.Int64
	ready := make(chan struct{})
	go func() {
		close(ready)
		for range tk.C() {
			ticks.Add(1)
		}
	}()
	<-ready
	for i := 1; i <= 5; i++ {
		f.Advance(time.Second)
		// The consumer has *received* tick i; it may not have finished
		// Add yet, so allow one scheduling hop.
		deadline := time.Now().Add(5 * time.Second)
		for ticks.Load() < int64(i) {
			if time.Now().After(deadline) {
				t.Fatalf("after Advance %d consumer counted %d", i, ticks.Load())
			}
			time.Sleep(time.Microsecond)
		}
		if n := ticks.Load(); n != int64(i) {
			t.Fatalf("after Advance %d consumer counted %d ticks", i, n)
		}
	}
}

// TestFakeTickerStopAndReset: a stopped ticker holds no waiter and does
// not block Advance; Reset revives it on the same channel, due one period
// after the reset, with synchronous delivery as before.
func TestFakeTickerStopAndReset(t *testing.T) {
	f := NewFake()
	tk := f.NewTicker(time.Millisecond)
	ch := tk.C()
	tk.Stop()
	if n := f.Waiters(); n != 0 {
		t.Fatalf("%d waiters after Stop, want 0", n)
	}
	f.Advance(10 * time.Millisecond) // nobody receives: must not block

	tk.Reset(2 * time.Millisecond)
	if n := f.Waiters(); n != 1 {
		t.Fatalf("%d waiters after Reset, want 1", n)
	}
	got := make(chan time.Time, 2)
	go func() {
		got <- <-ch
		got <- <-ch
	}()
	f.Advance(4 * time.Millisecond)
	for i, want := range []time.Duration{12 * time.Millisecond, 14 * time.Millisecond} {
		select {
		case tm := <-got:
			if !tm.Equal(fakeEpoch.Add(want)) {
				t.Fatalf("tick %d after Reset at %v, want epoch+%v", i, tm, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("tick %d after Reset never arrived", i)
		}
	}
	tk.Stop()
}

func TestFakeTimerStopAndReset(t *testing.T) {
	f := NewFake()
	tm := f.NewTimer(time.Second)
	if !tm.Stop() {
		t.Fatal("Stop on a pending timer reported not pending")
	}
	f.Advance(2 * time.Second)
	select {
	case <-tm.C():
		t.Fatal("stopped timer fired")
	default:
	}
	if tm.Reset(time.Second) {
		t.Fatal("Reset on a stopped timer reported pending")
	}
	f.Advance(time.Second)
	select {
	case <-tm.C():
	default:
		t.Fatal("reset timer did not fire")
	}
	// Re-arm after firing: the same channel keeps working.
	if tm.Reset(time.Millisecond) {
		t.Fatal("Reset on a fired, drained timer reported pending")
	}
	f.Advance(time.Millisecond)
	select {
	case <-tm.C():
	default:
		t.Fatal("re-armed timer did not fire")
	}
}

func TestFakeDeadlineTieBreaksByRegistration(t *testing.T) {
	f := NewFake()
	a := f.After(time.Second)
	b := f.After(time.Second)
	order := make(chan string, 2)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); <-a; order <- "a" }()
	go func() { defer wg.Done(); <-b; order <- "b" }()
	f.BlockUntil(2)
	// Buffered one-shots: delivery order into the channels is (deadline,
	// seq), but goroutine wake order is up to the scheduler. Assert the
	// deterministic part: both fire in one Advance.
	f.Advance(time.Second)
	wg.Wait()
	if len(order) != 2 {
		t.Fatalf("fired %d waiters, want 2", len(order))
	}
}

func TestFakeBlockUntilSeesWaiters(t *testing.T) {
	f := NewFake()
	go f.NewTicker(time.Second)
	go f.After(time.Minute)
	f.BlockUntil(2)
	if n := f.Waiters(); n != 2 {
		t.Fatalf("Waiters() = %d, want 2", n)
	}
}

func TestFakeConcurrentAdvanceSafe(t *testing.T) {
	f := NewFake()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				f.Advance(time.Millisecond)
			}
		}()
	}
	wg.Wait()
	if got, want := f.Now().Sub(fakeEpoch), 400*time.Millisecond; got != want {
		t.Fatalf("advanced %v total, want %v", got, want)
	}
}
