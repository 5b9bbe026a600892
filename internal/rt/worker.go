package rt

import (
	"math/rand"
	"runtime"
	"sync/atomic"

	"dws/internal/arbiter"
	"dws/internal/deque"
	"dws/internal/trace"
)

// Worker states.
const (
	stateActive int32 = iota
	stateSleeping
)

// worker is one worker goroutine, affined to core slot id for its whole
// life (the paper's w_ij ↔ c_j affinity).
//
// Field order groups owner-only hot state (deque pointer, victim order,
// RNG, free-lists, drought counter) away from the cross-goroutine fields:
// state is CASed by the coordinator on every wake and st is read by
// Stats(), so they sit behind a pad where their traffic cannot dirty the
// owner's line.
type worker struct {
	p      *Program
	id     int
	socket int // Topology.SocketOf(id); fixed for the worker's life

	deque *deque.Deque[taskNode]
	steal arbiter.Order // Algorithm 1's victim order; owner-only
	rng   *rand.Rand    // steal's draws, over src; owner-only
	src   xorshift
	pool  taskPool

	failedSteals int
	// evicted is set while the worker is acting on an eviction it has
	// already acknowledged and counted (loop).
	evicted bool

	_ [64]byte // owner-local fields above, cross-goroutine below

	st     *workerStats // this worker's shard of the program counters
	state  atomic.Int32
	wakeCh chan struct{}
	// robbedFrom is the socket id of the last thief that stole from this
	// worker across a socket boundary (-1 = none). The owner hands it to
	// steal at its next attempt: a worker robbed remotely prefers stealing
	// back from the thief's socket, where its tasks (and their cache
	// lines) went.
	robbedFrom atomic.Int32
}

func newWorker(p *Program, id int) *worker {
	w := &worker{
		p:      p,
		id:     id,
		socket: p.sys.cfg.Topology.SocketOf(id),
		deque:  deque.New[taskNode](64),
		// Same per-(program, worker) seed family the old rand.Rand used;
		// xorshift needs a non-zero state, which the +1 guarantees.
		src:    xorshift(int64(p.idx)*1_000_003 + int64(id)*97 + 1),
		pool:   newTaskPool(),
		st:     &p.st.w[id],
		wakeCh: make(chan struct{}, 1),
	}
	w.rng = rand.New(&w.src)
	w.robbedFrom.Store(-1)
	return w
}

// xorshift is a xorshift64* generator, the rand.Source64 under each
// worker's victim draws: three shifts in registers instead of the ≈5 KB
// state of math/rand's default source. Its quality is far beyond what
// victim selection needs.
type xorshift uint64

func (x *xorshift) Uint64() uint64 {
	s := uint64(*x)
	s ^= s << 13
	s ^= s >> 7
	s ^= s << 17
	*x = xorshift(s)
	return s * 0x2545F4914F6CDD1D
}

func (x *xorshift) Int63() int64 { return int64(x.Uint64() >> 1) }

// Seed sets the state; the low bit is forced because a zero state never
// leaves zero.
func (x *xorshift) Seed(seed int64) { *x = xorshift(seed | 1) }

// loop is Algorithm 1 on a live goroutine: pop the own pool, steal
// otherwise, and under DWS/DWS-NC sleep after T_SLEEP consecutive failed
// steals (releasing the core slot). A worker launched asleep takes its
// wake token whatever its state reads by now: a wake may have beaten this
// goroutine here, and a token left behind would end the next park at once.
func (w *worker) loop(asleep bool) {
	p := w.p
	defer p.wg.Done()

	if asleep {
		w.block()
		if p.shutdown.Load() {
			return
		}
	}

	cfg := &p.sys.cfg
	sleeper := cfg.Policy == DWS || cfg.Policy == DWSNC
	for {
		if p.shutdown.Load() {
			return
		}
		// Eviction check (DWS): an active worker whose slot is no longer
		// occupied by its program stops and sleeps without releasing.
		if cfg.Policy == DWS && p.sys.table.Occupant(w.id) != p.id {
			// Acknowledged and counted once per eviction, however many
			// passes it takes to act on it.
			if !w.evicted {
				w.evicted = true
				p.sys.table.AckEviction(w.id)
				w.st.evictions.Add(1)
				p.emit(trace.Event{Kind: trace.Evict, Core: w.id})
			}
			if w.park(false) {
				w.evicted = false
			} else {
				// The last active worker of a running program may not
				// sleep (liveness) and may not work on a core it lost:
				// yield until the coordinator finds the program a core
				// or the run ends.
				runtime.Gosched()
			}
			continue
		}
		w.evicted = false

		if t := w.deque.Pop(); t != nil {
			w.failedSteals = 0
			w.execute(t)
			continue
		}
		if t := w.trySteal(); t != nil {
			w.failedSteals = 0
			w.st.steals.Add(1)
			w.execute(t)
			continue
		}
		w.failedSteals++
		w.st.failedSteals.Add(1)
		if sleeper && arbiter.Park(w.failedSteals, cfg.TSleep) {
			if w.park(true) {
				continue
			}
		}
		// The ABP yield (and the backoff between failed attempts).
		runtime.Gosched()
	}
}

// trySteal is one steal attempt: it draws victims from w.steal until one
// yields a task or the current pass is spent, then falls back to the
// program's injection queue. A failed attempt counts once toward T_SLEEP.
// A cross-socket steal leaves the thief's socket id with the victim to
// arm the steal-back bias, which the victim hands to its own order here.
func (w *worker) trySteal() *taskNode {
	if w.robbedFrom.Load() >= 0 {
		w.steal.Robbed(int(w.robbedFrom.Swap(-1)))
	}
	if len(w.steal.Victims()) > 0 {
		ws := w.p.workers
		for {
			v := ws[w.steal.Next(w.rng)]
			if t := v.deque.Steal(); t != nil {
				w.steal.Stole()
				if v.socket == w.socket {
					w.st.localSteals.Add(1)
				} else {
					w.st.remoteSteals.Add(1)
					v.robbedFrom.Store(int32(w.socket))
				}
				return t
			}
			if w.steal.PassDone() {
				break
			}
		}
	}
	return w.p.inject.Steal()
}

// park puts the worker to sleep. release=true is the voluntary sleep of
// Algorithm 1 (the slot is released in the table); eviction sleeps pass
// false. It returns false if the worker is the program's last active
// worker during a run and must keep stealing (liveness; DESIGN.md §5).
func (w *worker) park(release bool) bool {
	p := w.p
	if p.shutdown.Load() {
		return false
	}
	if n := p.active.Add(-1); !arbiter.MaySleep(int(n), p.runActive.Load()) {
		p.active.Add(1)
		w.failedSteals = 0 // fresh drought window before the next attempt
		return false
	}
	// Emit before the state store: any trace.Wake for this worker is only
	// possible after the store (wake CASes sleeping→active), so the
	// observer sees this sleep strictly before the matching wake.
	p.emit(trace.Event{Kind: trace.Sleep, Core: w.id, Release: release})
	w.state.Store(stateSleeping)
	if release && p.sys.cfg.Policy == DWS {
		if p.sys.table.Release(w.id, p.id) {
			p.emit(trace.Event{Kind: trace.Release, Core: w.id})
		}
	}
	w.st.sleeps.Add(1)
	// Close sets shutdown and then sweeps one wake over the workers. A
	// sweep that read this worker's state before the store above missed
	// it, but then shutdown was already set: wake ourselves, as a sleep
	// followed by a wake like any other.
	if p.shutdown.Load() {
		p.wake(w)
	}
	w.block()
	return true
}

// block waits for a wake token (sent by Program.wake, which has already
// flipped the state back to active and re-counted the worker).
func (w *worker) block() {
	<-w.wakeCh
	w.failedSteals = 0
}
