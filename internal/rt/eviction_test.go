package rt

import (
	"sync"
	"testing"
	"time"

	"dws/internal/trace"
	"dws/internal/vclock"
)

// TestCloseReleasesSlots: after a DWS program closes, all its slots are
// free for the co-runner.
func TestCloseReleasesSlots(t *testing.T) {
	s, err := NewSystem(Config{
		Cores: 4, Programs: 2, Policy: DWS, CoordPeriod: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	a, _ := s.NewProgram("a")
	b, _ := s.NewProgram("b")
	if err := a.Run(yieldingSerial(5 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	a.Close()
	// Every slot a held must now be claimable by b's side of the table.
	for _, c := range a.Home() {
		if occ := s.table.Occupant(c); occ == a.id {
			t.Fatalf("slot %d still occupied by the closed program", c)
		}
	}
	if err := b.Run(yieldingSerial(2 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
}

// TestEvictionPath: a bursty program reclaims its home slots from a
// borrower, whose workers must observe the eviction and park. The
// scenario retries a few times because the interleaving depends on the
// host scheduler.
func TestEvictionPath(t *testing.T) {
	for attempt := 0; attempt < 3; attempt++ {
		s, err := NewSystem(Config{
			Cores: 4, Programs: 2, Policy: DWS, CoordPeriod: time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		greedy, _ := s.NewProgram("greedy")
		bursty, _ := s.NewProgram("bursty")

		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			// Greedy: continuous stream of yielding leaves — always demands
			// every slot it can get.
			root := func(c *Ctx) {
				for round := 0; round < 30; round++ {
					for i := 0; i < 8; i++ {
						c.Spawn(func(*Ctx) { time.Sleep(300 * time.Microsecond) })
					}
					c.Sync()
				}
			}
			for r := 0; r < 2; r++ {
				if err := greedy.Run(root); err != nil {
					t.Error(err)
				}
			}
		}()
		go func() {
			defer wg.Done()
			// Bursty: serial phases (slots released, greedy borrows them)
			// alternating with runs that re-grab the home share.
			for r := 0; r < 4; r++ {
				if err := bursty.Run(yieldingSerial(8 * time.Millisecond)); err != nil {
					t.Error(err)
				}
			}
		}()
		wg.Wait()
		gs, bs := greedy.Stats(), bursty.Stats()
		s.Close()
		if bs.Reclaims > 0 && gs.Evictions > 0 {
			t.Logf("attempt %d: greedy=%+v bursty=%+v", attempt, gs, bs)
			return // eviction protocol observed end to end
		}
		t.Logf("attempt %d inconclusive: greedy=%+v bursty=%+v", attempt, gs, bs)
	}
	t.Error("no reclaim+eviction observed in 3 attempts")
}

// TestLastActiveWorkerEvictedOnce: the last active worker of a running
// program cannot park when its core is reclaimed, so it retries — and one
// reclaim must still read as one eviction (one ack, one count, one event)
// however long the retrying lasts. The worker is staged by hand on an
// unstarted program so nothing but the reclaim below can move its core.
func TestLastActiveWorkerEvictedOnce(t *testing.T) {
	col := &obsCollector{}
	sys, err := NewSystem(Config{
		Cores: 2, Programs: 2, Policy: DWS, TSleep: 2,
		Clock: vclock.NewFake(), Observer: col.hook(),
	})
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	defer sys.Close()

	p := newProgram(sys, "T", 0)
	for _, w := range p.workers {
		w.state.Store(stateSleeping)
	}
	p.runActive.Store(true) // a run with nothing queued: the worker finds no task and may not sleep
	sys.table.InstallHome([]int{0}, p.id)
	w := p.workers[0]
	p.launch(w, stateActive)
	defer func() {
		p.shutdown.Store(true)
		p.wake(w)
		p.wg.Wait()
	}()

	if !sys.table.Reclaim(0, 2, p.id) {
		t.Fatal("Reclaim of the worker's core failed")
	}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(50 * time.Microsecond)
		}
	}
	waitFor("the eviction to be noticed", func() bool { return p.Stats().Evictions > 0 })
	if sys.table.EvictionPending(0) {
		t.Error("eviction counted but not acknowledged")
	}
	time.Sleep(5 * time.Millisecond) // thousands of refused parks
	p.runActive.Store(false)         // the run ends: the park succeeds
	waitFor("the evicted worker to park", func() bool { return p.Stats().Sleeps == 1 })

	if got := p.Stats().Evictions; got != 1 {
		t.Errorf("Evictions = %d after one reclaim, want 1", got)
	}
	events := 0
	col.mu.Lock()
	for _, ev := range col.evs {
		if ev.Kind == trace.Evict {
			events++
		}
	}
	col.mu.Unlock()
	if events != 1 {
		t.Errorf("%d trace.Evict events after one reclaim, want 1", events)
	}
}
