package sim

import "dws/internal/arbiter"

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

	// steal is the worker's victim order (Algorithm 1 line 8), drawn
	// from its program's rng.
	steal arbiter.Order

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

// pushTask appends t to w's own deque and pokes any spinning siblings so
// they retry immediately (models the near-instant pickup a real spinning
// thief gets, which batched spinning would otherwise miss).
func (m *Machine) pushTask(w *Worker, t *simTask) {
	w.deque.push(t)
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
