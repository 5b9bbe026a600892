package rt

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dws/internal/trace"
	"dws/internal/vclock"
)

// obsCollector is a minimal thread-safe Observer for rt-internal tests.
type obsCollector struct {
	mu  sync.Mutex
	evs []trace.Event
}

func (o *obsCollector) hook() trace.Observer {
	return func(ev trace.Event) {
		o.mu.Lock()
		o.evs = append(o.evs, ev)
		o.mu.Unlock()
	}
}

func (o *obsCollector) ticks() []trace.Event {
	o.mu.Lock()
	defer o.mu.Unlock()
	var ts []trace.Event
	for _, ev := range o.evs {
		if ev.Kind == trace.CoordTick {
			ts = append(ts, ev)
		}
	}
	return ts
}

// TestCoordTickThreeCases drives coordTick directly — the program is
// constructed without starting any goroutine, worker states and the
// allocation table are staged by hand — so every (N_b, N_a, N_f, N_r)
// boundary of the §3.3 rule is exercised synchronously and exactly once.
func TestCoordTickThreeCases(t *testing.T) {
	type tickCase struct {
		name   string
		policy Policy
		fault  bool
		// Staging: tasks in the inject queue and per-worker deques, which
		// workers are active (the rest sleep), and the table occupancy
		// (core → 1-based program ID; unset = free). The program under
		// test is slot 0 (ID 1, home {0, 1}) of 2 programs on 4 cores.
		inject  int
		deques  map[int]int
		active  []int
		occ     map[int]int32
		runOff  bool
		noEvent bool
		// Expected observation and actions of the single pass.
		nb, na, nw, nf, nr        int
		woken, claimed, reclaimed int
		// Expected post-state: cores the program must hold afterwards and
		// cores that must carry a pending eviction.
		holds   []int
		evicted []int
	}

	cases := []tickCase{
		{
			name: "no-run-no-pass", policy: DWS,
			inject: 5, runOff: true, noEvent: true,
		},
		{
			name: "no-demand-no-pass", policy: DWS,
			active: []int{0, 1}, occ: map[int]int32{0: 1, 1: 1}, noEvent: true,
		},
		{
			// N_a = 0: N_w = N_b (wake everything demand justifies).
			name: "idle-program-wakes-nb", policy: DWS,
			inject: 3,
			nb:     3, na: 0, nw: 3, nf: 4, nr: 0,
			woken: 3, claimed: 3, reclaimed: 0,
		},
		{
			// N_w == N_f: case 1 alone satisfies the pass.
			name: "nw-equals-nf", policy: DWS,
			deques: map[int]int{0: 2, 1: 2}, active: []int{0, 1},
			occ: map[int]int32{0: 1, 1: 1},
			nb:  4, na: 2, nw: 2, nf: 2, nr: 0,
			woken: 2, claimed: 2, reclaimed: 0,
			holds: []int{0, 1, 2, 3},
		},
		{
			// N_w == N_f + N_r: the free core is claimed (case 1), then the
			// borrowed home core is reclaimed (cases 2–3), its borrower
			// marked for eviction.
			name: "nw-spans-free-and-reclaim", policy: DWS,
			deques: map[int]int{0: 2}, inject: 0, active: []int{0},
			occ: map[int]int32{0: 1, 1: 2, 3: 2},
			nb:  2, na: 1, nw: 2, nf: 1, nr: 1,
			woken: 2, claimed: 1, reclaimed: 1,
			holds: []int{0, 1, 2}, evicted: []int{1},
		},
		{
			// N_w == N_f + N_r - 1: free-first order means the reclaim case
			// is never reached once N_w is satisfied.
			name: "free-first-starves-reclaim", policy: DWS,
			inject: 1, active: []int{0},
			occ: map[int]int32{0: 1, 1: 2},
			nb:  1, na: 1, nw: 1, nf: 2, nr: 1,
			woken: 1, claimed: 1, reclaimed: 0,
		},
		{
			// N_w > N_f + N_r: the pass takes everything available and
			// stops — demand beyond the table's supply waits for the next
			// period.
			name: "demand-exceeds-supply", policy: DWS,
			deques: map[int]int{0: 8}, active: []int{0},
			occ: map[int]int32{0: 1, 1: 2, 2: 2, 3: 2},
			nb:  8, na: 1, nw: 8, nf: 0, nr: 1,
			woken: 1, claimed: 0, reclaimed: 1,
			holds: []int{0, 1}, evicted: []int{1},
		},
		{
			// The injected coordinator bug: cases 2–3 are skipped, so the
			// same staging as nw-spans-free-and-reclaim under-wakes and the
			// borrowed home core stays lost.
			name: "fault-skips-reclaim", policy: DWS, fault: true,
			deques: map[int]int{0: 2}, active: []int{0},
			occ: map[int]int32{0: 1, 1: 2, 3: 2},
			nb:  2, na: 1, nw: 2, nf: 1, nr: 1,
			woken: 1, claimed: 1, reclaimed: 0,
			holds: []int{0, 2},
		},
		{
			// DWS-NC wakes sleeping workers without any table traffic.
			name: "dwsnc-wakes-without-table", policy: DWSNC,
			inject: 5, active: []int{0},
			nb: 5, na: 1, nw: 5, nf: 0, nr: 0,
			woken: 3, claimed: 0, reclaimed: 0,
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			col := &obsCollector{}
			sys, err := NewSystem(Config{
				Cores: 4, Programs: 2, Policy: tc.policy,
				TSleep: 2, CoordPeriod: 5 * time.Millisecond,
				Clock: vclock.NewFake(), Observer: col.hook(),
				FaultSkipReclaim: tc.fault,
			})
			if err != nil {
				t.Fatalf("NewSystem: %v", err)
			}
			defer sys.Close()

			// Stage the program by hand: no goroutines, every transition in
			// this test happens synchronously inside coordTick.
			p := newProgram(sys, "T", 0)
			p.runActive.Store(!tc.runOff)
			for _, w := range p.workers {
				w.state.Store(stateSleeping)
			}
			for _, c := range tc.active {
				p.workers[c].state.Store(stateActive)
				p.active.Add(1)
			}
			dummy := Task(func(*Ctx) {})
			for i := 0; i < tc.inject; i++ {
				p.inject.Push(&taskNode{fn: dummy, parent: &frame{}})
			}
			for c, n := range tc.deques {
				for i := 0; i < n; i++ {
					p.workers[c].deque.Push(&taskNode{fn: dummy, parent: &frame{}})
				}
			}
			for c, pid := range tc.occ {
				sys.table.InstallHome([]int{c}, pid)
			}

			p.coordTick()

			ticks := col.ticks()
			if tc.noEvent {
				if len(ticks) != 0 {
					t.Fatalf("expected no coordinator pass, got %+v", ticks)
				}
				return
			}
			if len(ticks) != 1 {
				t.Fatalf("got %d coordinator passes, want 1", len(ticks))
			}
			ev := ticks[0]
			obs := [5]int{ev.NB, ev.NA, ev.NW, ev.NF, ev.NR}
			if want := [5]int{tc.nb, tc.na, tc.nw, tc.nf, tc.nr}; obs != want {
				t.Errorf("observation (NB,NA,NW,NF,NR) = %v, want %v", obs, want)
			}
			act := [3]int{ev.Woken, ev.Claimed, ev.Reclaimed}
			if want := [3]int{tc.woken, tc.claimed, tc.reclaimed}; act != want {
				t.Errorf("actions (Woken,Claimed,Reclaimed) = %v, want %v", act, want)
			}
			for _, c := range tc.holds {
				if got := sys.table.Occupant(c); got != p.id {
					t.Errorf("core %d occupied by p%d, want p%d", c, got, p.id)
				}
			}
			for _, c := range tc.evicted {
				if !sys.table.EvictionPending(c) {
					t.Errorf("core %d has no pending eviction after reclaim", c)
				}
			}
			// Every woken worker must be active again with a wake token
			// waiting, and the active counter must account for them.
			woken := 0
			for _, w := range p.workers {
				if len(w.wakeCh) == 1 {
					woken++
					if w.state.Load() != stateActive {
						t.Errorf("worker %d holds a wake token but is not active", w.id)
					}
				}
			}
			if woken != tc.woken {
				t.Errorf("%d wake tokens delivered, want %d", woken, tc.woken)
			}
			if got, want := int(p.active.Load()), len(tc.active)+tc.woken; got != want {
				t.Errorf("active counter = %d, want %d", got, want)
			}
		})
	}
}

// TestCloseReturnsWithoutClock pins the signal-driven shutdown wait: with
// every worker parked and the fake clock frozen, Close's single wake sweep
// must suffice — nothing timed can come to its rescue.
func TestCloseReturnsWithoutClock(t *testing.T) {
	fake := vclock.NewFake()
	sys, err := NewSystem(Config{
		Cores: 2, Programs: 1, Policy: DWS,
		TSleep: 2, CoordPeriod: 5 * time.Millisecond, Clock: fake,
	})
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	p, err := sys.NewProgram("A")
	if err != nil {
		t.Fatalf("NewProgram: %v", err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for p.Stats().Sleeps < 2 {
		if time.Now().After(deadline) {
			t.Fatal("workers never parked")
		}
		time.Sleep(50 * time.Microsecond)
	}
	done := make(chan struct{})
	go func() { sys.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close hung under a frozen clock")
	}
}

// TestCloseRacingParkOnFrozenClock closes a program whose workers are
// inside park, past its shutdown check but with their sleep not yet
// published — the workers Close's wake sweep cannot see. Each must notice
// the shutdown itself, because on a frozen clock nothing else will ever
// wake it. park emits trace.Sleep inside that window, so the observer holds
// every worker that parks during or after the run there until Close has
// set shutdown and swept.
func TestCloseRacingParkOnFrozenClock(t *testing.T) {
	const cores = 4
	iterate := func() {
		var held atomic.Pointer[Program]
		sys, err := NewSystem(Config{
			Cores: cores, Programs: 1, Policy: DWS, TSleep: 1,
			Clock: vclock.NewFake(),
			Observer: func(ev trace.Event) {
				p := held.Load()
				if ev.Kind != trace.Sleep || p == nil {
					return
				}
				for !p.shutdown.Load() {
					runtime.Gosched()
				}
				for i := 0; i < 50; i++ { // let the sweep pass
					runtime.Gosched()
				}
			},
		})
		if err != nil {
			t.Errorf("NewSystem: %v", err)
			return
		}
		defer sys.Close()
		p, err := sys.NewProgram("A")
		if err != nil {
			t.Errorf("NewProgram: %v", err)
			return
		}
		// Run's own answer to a wake that misses a worker mid-park is a
		// ticker, which a frozen clock never fires: start from all asleep.
		for p.Stats().Sleeps < cores {
			runtime.Gosched()
		}
		held.Store(p)
		if err := p.Run(func(c *Ctx) {
			for j := 0; j < cores; j++ {
				c.Spawn(func(*Ctx) {})
			}
		}); err != nil {
			t.Errorf("Run: %v", err)
		}
		p.Close()
	}
	progress := make(chan int)
	go func() {
		defer close(progress)
		for i := 0; i < 200 && !t.Failed(); i++ {
			iterate()
			progress <- i
		}
	}()
	last := -1
	for {
		select {
		case i, ok := <-progress:
			if !ok {
				return
			}
			last = i
		case <-time.After(10 * time.Second):
			t.Fatalf("iteration %d hung on a frozen clock", last+1)
		}
	}
}

// TestLeaseExpiryOnFakeClock drives the crash-recovery path purely in
// virtual time: a program that stops beating is declared dead as soon as
// advances push its heartbeat past the TTL — no real-time waiting.
func TestLeaseExpiryOnFakeClock(t *testing.T) {
	fake := vclock.NewFake()
	col := &obsCollector{}
	sys, err := NewSystem(Config{
		Cores: 2, Programs: 2, Policy: DWS,
		TSleep: 2, CoordPeriod: 5 * time.Millisecond,
		LeaseTTL: 20 * time.Millisecond,
		Clock:    fake, Observer: col.hook(),
	})
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	defer sys.Close()
	a, err := sys.NewProgram("A")
	if err != nil {
		t.Fatalf("NewProgram(A): %v", err)
	}
	if _, err := sys.NewProgram("B"); err != nil {
		t.Fatalf("NewProgram(B): %v", err)
	}
	a.FailBeats(true)

	deadline := time.Now().Add(10 * time.Second)
	for {
		if sweeps, _ := sys.RecoveryStats(); sweeps > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no sweep despite 20ms TTL and advancing virtual time")
		}
		fake.Advance(5 * time.Millisecond)
		time.Sleep(50 * time.Microsecond)
	}
	col.mu.Lock()
	defer col.mu.Unlock()
	found := false
	for _, ev := range col.evs {
		if ev.Kind == trace.Sweep {
			if ev.Victim != a.id {
				t.Fatalf("swept p%d, want the silent program p%d", ev.Victim, a.id)
			}
			found = true
		}
	}
	if !found {
		t.Fatal("sweep happened but no trace.Sweep event was emitted")
	}
}
