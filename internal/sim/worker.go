package sim

// wState is a worker's scheduling state.
type wState int

const (
	// wOff: the worker does not participate (EP non-home workers, or the
	// program finished its target runs).
	wOff wState = iota
	// wSleeping: blocked after exceeding T_SLEEP failed steals (or evicted);
	// only a coordinator wake (or initial allocation) makes it runnable.
	wSleeping
	// wWaking: a wake is in flight (WakeLatencyUS has not elapsed yet).
	wWaking
	// wReady: in its core's run queue, not currently scheduled.
	wReady
	// wRunning: scheduled on its core and executing a task segment.
	wRunning
	// wSpinning: scheduled on its core, burning cycles in the steal loop.
	wSpinning

	numWStates = iota
)

func (s wState) String() string {
	switch s {
	case wOff:
		return "off"
	case wSleeping:
		return "sleeping"
	case wWaking:
		return "waking"
	case wReady:
		return "ready"
	case wRunning:
		return "running"
	case wSpinning:
		return "spinning"
	default:
		return "?"
	}
}

// remoteStealBackoff is how many victim passes stay same-socket-only
// after a full pass (local and remote segments) finds nothing to steal —
// the simulator's mirror of the live runtime's bounded remote-scan
// backoff: a drought should not keep hammering remote sockets' deque
// cache lines across the interconnect.
const remoteStealBackoff = 2

// Worker is one simulated worker thread. Worker i of a program is affined
// to core i for its whole life (the paper's w_ij ↔ c_j affinity).
type Worker struct {
	prog   *Program
	id     int // worker index == core index
	socket int // id / Config.SocketSize
	state  wState

	// deque is the worker's task pool: the owner pushes/pops at the back,
	// thieves steal from the front. It stays stealable while the worker
	// sleeps (an evicted worker can park with queued tasks).
	deque taskQueue

	failedSteals int

	// Victim-selection state: a shuffled cycle over the victim set. Each
	// attempt takes the next victim; the order is reshuffled once per full
	// pass. This keeps selection random (Algorithm 1 line 8) while
	// guaranteeing a full scan every |victims| attempts, so T_SLEEP
	// consecutive failures mean "no stealable work", not "unlucky draws".
	//
	// On a multi-socket machine the victim list is partitioned (see
	// buildVictimSets) and each pass scans the shuffled same-socket
	// segment before the shuffled remote one, with two refinements
	// mirroring the live runtime: a full pass without a successful steal
	// arms a bounded remote backoff (the next remoteStealBackoff passes
	// stay local-only), and a worker robbed across a socket boundary
	// starts its next remote segment at the thief's socket (steal-back).
	order    []int
	orderPos int
	nLocal   int  // victims[:nLocal] share w's socket
	passFull bool // current pass includes the remote segment
	// passSteal records a successful steal during the current pass; a
	// completed full pass without one arms the remote backoff.
	passSteal  bool
	remoteSkip int // local-only passes left before remotes are scanned again
	robbedFrom int // socket of the last cross-socket thief; -1 = none

	// Current segment execution state (valid while cur != nil).
	cur           *simTask
	remaining     float64 // ideal work µs left in the current segment
	segEffStart   int64   // segment start after pending latency
	segColdUntil  int64   // frozen cache-cold horizon
	segWarmRate   float64 // wall µs per work µs when warm (LLC factor)
	segColdFactor float64 // extra multiplier while cold

	// pendingLatency is wall time (context switches, steal latency,
	// coordinator overhead) charged to the next scheduled segment.
	pendingLatency int64

	// Spin bookkeeping (valid while state == wSpinning).
	spinStart     int64
	spinFS0       int
	spinPeriod    int64 // wall µs per failed attempt during this spin
	notifyPending bool

	// gen invalidates scheduled segment/spin events after preemption,
	// sleep or interrupt.
	gen int64
}

// pushTask appends t to w's own deque (or the program's central pool in
// work-sharing mode) and pokes any spinning siblings so they retry
// immediately (models the near-instant pickup a real spinning thief gets,
// which batched spinning would otherwise miss).
func (m *Machine) pushTask(w *Worker, t *simTask) {
	if m.cfg.WorkSharing {
		w.prog.central.push(t)
	} else {
		w.deque.push(t)
	}
	m.notifySpinners(w.prog, w)
	if m.cfg.Policy == GO {
		m.wakepGO(w.prog, w)
	}
}

// wakepGO is the GO policy's wakep: a task push wakes one parked worker of
// the program unless a thief is already hunting (a spinning worker will
// pick the task up, a waking one is already on its way) — the Go
// runtime's "wake an idle P unless a spinning M exists" rule. The pushed
// task may sit in a parked worker's own deque (open-loop job starts), in
// which case that worker is the one to wake.
func (m *Machine) wakepGO(p *Program, pusher *Worker) {
	if pusher.state == wSleeping {
		m.wakeWorker(pusher)
		return
	}
	if p.inState[wSpinning] > 0 || p.inState[wWaking] > 0 {
		return
	}
	n := len(p.workers)
	p.notifyRR++
	for i := 0; i < n; i++ {
		if w := p.workers[(i+p.notifyRR)%n]; w.state == wSleeping {
			m.wakeWorker(w)
			return
		}
	}
}

// setState moves w to state s, keeping its program's per-state census.
func (w *Worker) setState(s wState) {
	w.prog.inState[w.state]--
	w.prog.inState[s]++
	w.state = s
}

// nextVictim returns the next victim in w's phased shuffled cycle: each
// pass scans the shuffled same-socket segment, then (unless the remote
// backoff is armed) the shuffled remote segment with the steal-back
// socket's victims first. A flat victim set (nLocal == len(victims))
// degenerates to the single shuffled cycle of the pre-topology simulator,
// consuming the RNG identically.
func (w *Worker) nextVictim(victims []*Worker) *Worker {
	if len(w.order) != len(victims) {
		w.order = make([]int, len(victims))
		for i := range w.order {
			w.order[i] = i
		}
		w.orderPos = len(victims) // force a new pass
		w.passFull = true
		w.passSteal = true // the phantom first pass must not arm the backoff
	}
	limit := len(w.order)
	if !w.passFull {
		limit = w.nLocal
	}
	if w.orderPos >= limit {
		w.beginPass(victims)
	}
	v := victims[w.order[w.orderPos]]
	w.orderPos++
	return v
}

// beginPass closes the finished pass — arming the remote backoff after a
// fruitless full pass, draining it after a local-only one — and shuffles
// the segments for the next pass.
func (w *Worker) beginPass(victims []*Worker) {
	n := len(w.order)
	nl := w.nLocal
	if nl > 0 && nl < n {
		if w.passFull && !w.passSteal {
			w.remoteSkip = remoteStealBackoff
		} else if !w.passFull && w.remoteSkip > 0 {
			w.remoteSkip--
		}
	}
	w.passSteal = false
	w.passFull = w.remoteSkip == 0 || nl == 0 || nl >= n
	w.orderPos = 0
	rng := w.prog.rng
	rng.Shuffle(nl, func(i, j int) {
		w.order[i], w.order[j] = w.order[j], w.order[i]
	})
	if nl >= n || !w.passFull {
		return
	}
	rng.Shuffle(n-nl, func(i, j int) {
		w.order[nl+i], w.order[nl+j] = w.order[nl+j], w.order[nl+i]
	})
	if rf := w.robbedFrom; rf >= 0 {
		// Steal-back: stable-partition the robbing socket's victims to the
		// front of the remote segment, then consume the bias.
		w.robbedFrom = -1
		k := nl
		for i := nl; i < n; i++ {
			if victims[w.order[i]].socket == rf {
				idx := w.order[i]
				copy(w.order[k+1:i+1], w.order[k:i])
				w.order[k] = idx
				k++
			}
		}
	}
}

// notifySpinners schedules a steal retry for every spinning worker of p
// other than pusher. Retries are deduplicated per worker, and the starting
// offset rotates so no worker systematically wins or loses the race for
// freshly pushed tasks (real thieves are desynchronised).
func (m *Machine) notifySpinners(p *Program, pusher *Worker) {
	n := len(p.workers)
	p.notifyRR++
	if p.allPoked {
		return // most pushes: an earlier one already poked every spinner
	}
	for i := 0; i < n; i++ {
		s := p.workers[(i+p.notifyRR)%n]
		if s == pusher || s.state != wSpinning || s.notifyPending {
			continue
		}
		s.notifyPending = true
		m.arm(m.now, event{kind: evNotify, w: s, gen: s.gen})
	}
	p.allPoked = pusher == nil || pusher.state != wSpinning
}

// beginSpin puts w (the current worker of its core) into the spin state
// until deadline, when an event of kind onDeadline (evSpinPark or
// evSpinRecheck) ends it. The spin also ends early on preemption or a
// notify. period is the wall time one failed attempt represents (used to
// convert elapsed spin back into failed steals).
func (m *Machine) beginSpin(w *Worker, deadline int64, period int64, onDeadline evKind) {
	w.setState(wSpinning)
	w.prog.allPoked = false
	w.spinStart = m.now
	w.spinFS0 = w.failedSteals
	w.spinPeriod = period
	m.arm(deadline, event{kind: onDeadline, w: w, gen: w.gen})
}

// endSpin folds elapsed spin time into failed-steal and waste accounting.
// It does not change w.state; callers decide what happens next.
func (m *Machine) endSpin(w *Worker) {
	elapsed := m.now - w.spinStart
	if elapsed < 0 {
		elapsed = 0
	}
	period := w.spinPeriod
	if period <= 0 {
		period = m.cfg.StealCostUS
	}
	attempts := elapsed / period
	w.failedSteals = w.spinFS0 + int(attempts)
	w.prog.stats.FailedSteals += attempts
	w.prog.stats.SpinUS += elapsed
}
