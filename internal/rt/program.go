package rt

import (
	"errors"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dws/internal/arbiter"
	"dws/internal/coretable"
	"dws/internal/deque"
	"dws/internal/trace"
	"dws/internal/vclock"
)

// Program is one work-stealing program hosted by a System: k workers (one
// per core slot), an injection queue for root tasks, and — under DWS and
// DWS-NC — a coordinator goroutine.
type Program struct {
	sys  *System
	name string
	idx  int
	id   int32 // 1-based table ID
	home []int

	workers []*worker

	// inject receives root tasks from Run; workers drain it like a
	// stealable deque.
	inject *deque.Locked[taskNode]

	// nodeOverflow rebalances recycled taskNodes between workers: a
	// stolen task finishes (and recycles its node) on the thief, so a
	// spawn-heavy worker's free-list drains while the thieves' fill; the
	// ring routes the surplus back (pool.go).
	nodeOverflow *deque.Bounded[taskNode]

	// obs caches sys.cfg.Observer so the emit fast path is a single
	// nil-check on the program itself, not a pointer chase through the
	// system config.
	obs trace.Observer

	active    atomic.Int64
	runActive atomic.Bool
	shutdown  atomic.Bool
	beatsOff  atomic.Bool // fault injection: suppress lease heartbeats

	// qosState carries the declared arbitration weight/SLO and the
	// queue-wait demand signal (arbiter.go).
	qosState

	runMu sync.Mutex // serialises Run calls
	// coordMu orders coordinator passes against home re-grabs: a run
	// starts (root published, home re-taken) as one step to the
	// coordinator, as a run starts in one event in the simulator, so no
	// pass sees a started run before its home workers are woken and
	// claims a foreign free core in their place. Holding it across wakes
	// is safe: a wake's token send never blocks (one token per sleep).
	// It also guards crng.
	coordMu sync.Mutex
	// Run's working set, allocated once per program rather than per job
	// because runMu admits one run at a time: the root frame with its
	// completion signal, the root task's node, the re-wake ticker (made
	// by the first Run, stopped between runs) and the entitled home block
	// regrabHome last derived (runHomeCores).
	rootFrame frame
	rootNode  taskNode
	rewake    vclock.Ticker
	runHome   []int

	coordStop chan struct{}
	wg        sync.WaitGroup
	crng      *rand.Rand // the coordinator's plan draws

	st progStats
}

func newProgram(s *System, name string, idx int) *Program {
	p := &Program{
		sys:          s,
		name:         name,
		idx:          idx,
		id:           int32(idx + 1),
		home:         coretable.HomeCores(s.cfg.Cores, s.cfg.Programs, idx),
		inject:       deque.NewLocked[taskNode](8),
		nodeOverflow: deque.NewBounded[taskNode](nodeOverflowCap),
		obs:          s.cfg.Observer,
		coordStop:    make(chan struct{}),
		crng:         rand.New(rand.NewSource(int64(idx)*7919 + 17)),
	}
	p.rootFrame.done = make(chan struct{}, 1)
	p.st.init(s.cfg.Cores)
	for c := 0; c < s.cfg.Cores; c++ {
		p.workers = append(p.workers, newWorker(p, c))
	}
	// Victim pools: every core, or under EP the program's home cores.
	pool := p.home
	if s.cfg.Policy != EP {
		pool = make([]int, s.cfg.Cores)
		for c := range pool {
			pool[c] = c
		}
	}
	for _, w := range p.workers {
		w.steal = arbiter.NewOrder(s.cfg.Topology, false, pool, w.id)
	}
	return p
}

// Name returns the program's name.
func (p *Program) Name() string { return p.name }

// Slot returns the program's slot index in its system (0-based; its
// 1-based core allocation table ID is Slot()+1).
func (p *Program) Slot() int { return p.idx }

// Home returns the program's home core slots (the initial even share).
func (p *Program) Home() []int { return append([]int(nil), p.home...) }

// Stats returns a snapshot of the program's scheduler counters.
func (p *Program) Stats() Stats { return p.st.snapshot() }

// emit reports a scheduling transition of this program to the system
// observer (a no-op without one). The nil-check on the cached observer is
// the entire unobserved cost.
func (p *Program) emit(ev trace.Event) {
	if p.obs != nil {
		ev.Prog = p.id
		p.obs(ev)
	}
}

// start launches the worker goroutines (and coordinator) according to the
// system policy and the initial allocation — the paper's even split, or
// the entitled block when an arbiter has already published one (a late
// joiner starts on whatever home the arbiter left it; the arbiter's next
// tick sees the join and republishes).
func (p *Program) start() {
	switch p.sys.cfg.Policy {
	case ABP:
		for _, w := range p.workers {
			p.launch(w, stateActive)
		}
	case EP:
		for _, c := range p.home {
			p.launch(p.workers[c], stateActive)
		}
	case DWS, DWSNC:
		if p.sys.cfg.Policy == DWS {
			// Join the lease (heartbeat stamped) before taking any core, so
			// there is no window where the program occupies cores without
			// a live lease a survivor could check.
			epoch := p.sys.table.Join(p.id)
			p.emit(trace.Event{Kind: trace.Join, Core: -1, Epoch: epoch})
			p.regrabHome()
		}
		home := p.homeCores()
		for _, w := range p.workers {
			if slices.Contains(home, w.id) {
				p.launch(w, stateActive)
			} else {
				p.launch(w, stateSleeping)
			}
		}
		p.wg.Add(1)
		go p.coordinate()
	}
}

func (p *Program) launch(w *worker, initial int32) {
	w.state.Store(initial)
	if initial == stateActive {
		p.active.Add(1)
	}
	p.wg.Add(1)
	go w.loop(initial == stateSleeping)
}

// FailBeats is a fault-injection hook for tests and demos: while set, the
// coordinator stops beating the program's core-table lease, so survivors
// eventually declare the program dead and sweep its cores — exactly what
// happens when a real program wedges or its process is SIGKILLed.
func (p *Program) FailBeats(off bool) { p.beatsOff.Store(off) }

// ErrClosed is returned by Run on a closed program.
var ErrClosed = errors.New("rt: program is closed")

// Run executes root to completion on the program's workers, blocking the
// caller. Consecutive runs model the paper's back-to-back repetitions: a
// restarting program re-takes its home slots first (a fresh process would
// start with its even share).
func (p *Program) Run(root Task) error {
	if p.shutdown.Load() {
		return ErrClosed
	}
	p.runMu.Lock()
	defer p.runMu.Unlock()
	if p.shutdown.Load() {
		return ErrClosed
	}

	p.rootFrame.pending.Store(1)
	p.coordMu.Lock()
	p.runActive.Store(true)
	p.st.rootSpawns.Add(1) // the root injection
	p.emit(trace.Event{Kind: trace.RunStart, Core: -1})
	n := &p.rootNode
	n.fn, n.parent = root, &p.rootFrame
	p.inject.Push(n)
	p.regrabHome()
	p.coordMu.Unlock()

	// Wait for completion; if every worker managed to fall asleep in the
	// window before the injection became visible, re-wake the home slots.
	// The ticker only runs during a run: left ticking it would wake an
	// idle program's host a thousand times a second, and a fake clock
	// delivers a tick synchronously, to a reader that is not there. (A
	// tick Stop leaves buffered costs the next run one early check.)
	if p.rewake == nil {
		p.rewake = p.sys.cfg.Clock.NewTicker(time.Millisecond)
	} else {
		p.rewake.Reset(time.Millisecond)
	}
	for {
		select {
		case <-p.rootFrame.done:
			p.rewake.Stop()
			n.fn = nil // release the closure for the GC
			p.runActive.Store(false)
			p.st.runs.Add(1)
			p.emit(trace.Event{Kind: trace.RunDone, Core: -1,
				Spawned: p.st.spawns(), Executed: p.st.execs(),
				LocalSteals: p.st.localSteals(), RemoteSteals: p.st.remoteSteals()})
			return nil
		case <-p.rewake.C():
			if p.active.Load() == 0 {
				p.coordMu.Lock()
				p.regrabHome()
				p.coordMu.Unlock()
			}
		}
	}
}

// regrabHome (re)establishes the program's home allocation through the
// CAS protocol and wakes the affined workers: free home cores are claimed
// and borrowed ones reclaimed (the eviction flag tells the borrower to
// stop). Unlike a blind install this is safe when other programs —
// possibly in other OS processes — already run on the shared table: a
// late or restarted joiner takes its home share back the same way a
// reclaiming owner does. Run calls it per job, under coordMu; start
// calls it once before any worker or the coordinator launches (its wakes
// are then no-ops), which is safe for runHomeCores because start runs
// under System.mu, before any Run can hold runMu. DWS-NC just wakes the
// home workers.
func (p *Program) regrabHome() {
	switch p.sys.cfg.Policy {
	case ABP, EP:
		return // workers never sleep
	case DWSNC:
		for _, c := range p.home {
			p.wake(p.workers[c])
		}
	case DWS:
		t := p.sys.table
		home := p.runHomeCores()
		epoch := t.EntitlementEpoch()
		for _, c := range home {
			switch occ := t.Occupant(c); {
			case occ == coretable.Free:
				if !t.ClaimFree(c, p.id) {
					continue
				}
				p.st.claims.Add(1)
				p.emit(trace.Event{Kind: trace.Claim, Core: c})
			case occ != p.id:
				if !t.Reclaim(c, p.id, occ) {
					continue
				}
				p.st.reclaims.Add(1)
				p.emit(trace.Event{Kind: trace.Reclaim, Core: c, Victim: occ, Epoch: epoch})
			}
			p.wake(p.workers[c])
		}
	}
}

// wake transitions a sleeping worker to active. It is a no-op if the
// worker is not (yet) asleep; the coordinator's next tick retries.
func (p *Program) wake(w *worker) bool {
	if !w.state.CompareAndSwap(stateSleeping, stateActive) {
		return false
	}
	p.active.Add(1)
	p.st.wakes.Add(1)
	p.emit(trace.Event{Kind: trace.Wake, Core: w.id})
	w.wakeCh <- struct{}{}
	return true
}

// Close stops the program's workers and coordinator, waits for them, and
// releases every core slot the program still occupies (so co-running
// programs can claim them, like a process exit would).
func (p *Program) Close() {
	if p.shutdown.Swap(true) {
		return
	}
	close(p.coordStop)
	// Unblock sleeping workers so they observe the shutdown flag. One
	// sweep is enough: a worker that is racing into park and still reads
	// "active" here finds shutdown set once it has published its sleep,
	// and wakes itself.
	for _, w := range p.workers {
		p.wake(w)
	}
	p.wg.Wait()
	if p.sys.cfg.Policy == DWS {
		for c := 0; c < p.sys.cfg.Cores; c++ {
			if p.sys.table.Release(c, p.id) {
				p.emit(trace.Event{Kind: trace.Release, Core: c})
			}
		}
		// Clean departure: drop the lease so survivors never sweep (and
		// never double-free) this program's ID.
		p.sys.table.Leave(p.id)
	}
	// Only after every goroutine has exited and every table entry is
	// released may the slot (and with it the 1-based table ID) be reused.
	p.sys.detach(p)
}

// coordinate is the coordinator loop (§3.3) for DWS and DWS-NC. Under
// DWS it also keeps the program's lease alive (one heartbeat per period)
// and sweeps dead co-runners' leases, freeing their cores — the recovery
// path for programs that died without releasing (kill -9, OOM).
func (p *Program) coordinate() {
	defer p.wg.Done()
	ticker := p.sys.cfg.Clock.NewTicker(p.sys.cfg.CoordPeriod)
	defer ticker.Stop()
	for {
		select {
		case <-p.coordStop:
			return
		case <-ticker.C():
			if p.sys.cfg.Policy == DWS {
				t := p.sys.table
				if !p.beatsOff.Load() {
					t.Beat(p.id)
				}
				if dead := t.SweepExpired(p.id, p.sys.cfg.LeaseTTL); len(dead) > 0 {
					for _, e := range dead {
						p.st.deadSweeps.Add(1)
						p.st.coresRecovered.Add(int64(e.Cores))
					}
					p.sys.noteSwept(p.id, dead)
				}
			}
			p.coordTick()
		}
	}
}

// coordTick is one coordinator pass (§3.3): measure demand (N_b queued
// tasks, N_a active workers), snapshot the sleeping workers' free and
// borrowed home cores, and carry out arbiter.Plan's claims and reclaims
// through the CAS protocol — at most N_w actions. DWS-NC plans over the
// sleeping workers alone, with no table traffic.
func (p *Program) coordTick() {
	p.coordMu.Lock()
	defer p.coordMu.Unlock()
	if !p.runActive.Load() {
		return
	}
	nb, na := p.demand()
	if nb == 0 {
		return
	}
	nw := arbiter.Want(nb, na)
	if nw <= 0 {
		return
	}
	ev := trace.Event{Kind: trace.CoordTick, Core: -1, NB: nb, NA: na, NW: nw}

	if p.sys.cfg.Policy == DWSNC {
		var sleepers []int
		for _, w := range p.workers {
			if w.state.Load() == stateSleeping {
				sleepers = append(sleepers, w.id)
			}
		}
		// N_w clamped to the sleepers keeps the pass in case 1: a random
		// N_w of them, or all of them in a random order.
		wake, _ := arbiter.Plan(min(nw, len(sleepers)), sleepers, nil, p.crng)
		for _, c := range wake {
			if p.wake(p.workers[c]) {
				ev.Woken++
			}
		}
		p.emit(ev)
		return
	}

	// DWS: snapshot the observation first so the emitted event carries the
	// (N_f, N_r) tuple the three-case rule was applied to; the action loops
	// below re-check every condition through the CAS protocol, so a stale
	// snapshot entry only costs a skipped wake.
	t := p.sys.table
	var free, borrowed []int
	for _, c := range t.FreeCores() {
		if p.workers[c].state.Load() == stateSleeping {
			free = append(free, c)
		}
	}
	for _, c := range p.homeCores() {
		if p.workers[c].state.Load() != stateSleeping {
			continue
		}
		if occ := t.Occupant(c); occ != p.id && occ != coretable.Free {
			borrowed = append(borrowed, c)
		}
	}
	ev.NF, ev.NR = len(free), len(borrowed)
	// The entitlement epoch the reclaim targets derive from, read after
	// homeCores so a concurrent publish can only make the stamp newer —
	// observers judging reclaim legality defer to the stamped batch.
	entEpoch := t.EntitlementEpoch()
	claim, reclaim := arbiter.Plan(nw, free, borrowed, p.crng)
	// FaultSkipReclaim drops cases 2–3 for invariant-checker tests.
	if p.sys.cfg.FaultSkipReclaim {
		reclaim = nil
	}
	for _, c := range claim {
		w := p.workers[c]
		if w.state.Load() != stateSleeping || !t.ClaimFree(c, p.id) {
			continue
		}
		p.st.claims.Add(1)
		p.emit(trace.Event{Kind: trace.Claim, Core: c})
		ev.Claimed++
		if p.wake(w) {
			ev.Woken++
		} else if t.Release(c, p.id) {
			// The worker raced away; return the slot.
			p.emit(trace.Event{Kind: trace.Release, Core: c})
		}
	}
	for _, c := range reclaim {
		w := p.workers[c]
		if w.state.Load() != stateSleeping {
			continue
		}
		occ := t.Occupant(c)
		if occ == p.id || occ == coretable.Free || !t.Reclaim(c, p.id, occ) {
			continue
		}
		p.st.reclaims.Add(1)
		p.emit(trace.Event{Kind: trace.Reclaim, Core: c, Victim: occ, Epoch: entEpoch})
		ev.Reclaimed++
		if p.wake(w) {
			ev.Woken++
		}
	}
	p.emit(ev)
}
