package sim

import (
	"math/rand"

	"dws/internal/arbiter"
	"dws/internal/task"
	"dws/internal/trace"
)

// Program is one work-stealing program: k workers (one per core), its own
// RNG for victim/core selection, a coordinator (under DWS/DWS-NC), and the
// repeat-run bookkeeping of the paper's Fig. 3 methodology.
type Program struct {
	id  int32 // 1-based, used in the core allocation table
	idx int   // 0-based index into Machine.progs

	// name is the program's stable display name (the construction graph's
	// Name). In open-loop mode graph is swapped per job, so results report
	// this name instead of the current graph's.
	name  string
	graph *task.Graph
	rng   *rand.Rand

	workers []*Worker
	home    []int

	active int // workers in {waking, ready, running, spinning}
	// inState[s] counts the workers in state s, so a GO push can tell
	// whether a thief is already hunting without looking at every worker.
	inState [numWStates]int

	runActive  bool
	runStart   int64
	runsDone   int
	targetRuns int
	satisfied  bool

	// coordDebt is pending coordinator overhead, charged to the next
	// scheduled segment of any of the program's workers.
	coordDebt int64
	// coordFn is the coordinator tick as an event closure, built once and
	// re-armed every period.
	coordFn func()

	// notifyRR rotates the spinner-notification order so no worker
	// systematically loses the race for freshly pushed tasks.
	notifyRR int
	// allPoked: every spinning worker already has a steal retry pending,
	// so a push has nobody left to notify. It holds from one full
	// notifySpinners scan until a worker starts spinning or a pending
	// retry fires.
	allPoked bool

	// curJob is the open-loop job currently executing (Machine.RunOpen);
	// admitted-but-not-started jobs wait in Machine.adm.
	curJob *openJob

	// svcEWMAUS is the EWMA of job run times in µs (α = 1/4) — the WFQ
	// service cost and early-rejection wait predictor, mirroring the
	// server tenant's runEWMANanos on the virtual clock.
	svcEWMAUS int64

	stats ProgStats
}

// queuedTasks returns N_b, the total number of tasks in the program's
// deques, sleeping workers' included.
func (p *Program) queuedTasks() int {
	n := 0
	for _, w := range p.workers {
		n += w.deque.len()
	}
	return n
}

// startRun launches (or relaunches) the program's computation by pushing a
// fresh root task onto w's deque.
//
// In the paper's methodology each run is a freshly launched process that
// begins with its even share of the cores (§3.1), so a restarting program
// re-takes its home cores: free ones are claimed, borrowed ones reclaimed
// (DWS), or the home workers are simply woken (DWS-NC).
func (m *Machine) startRun(p *Program, w *Worker) {
	p.runActive = true
	p.runStart = m.now
	if p.runsDone > 0 {
		m.regrabHome(p)
	}
	m.pushTask(w, m.newTask(p.graph.Root, nil))
}

// regrabHome re-takes p's home block for its sleeping workers: free home
// cores are claimed and borrowed ones reclaimed, each emitting its Claim
// or Reclaim event as rt.Program.regrabHome does (a reclaim carries the
// entitlement epoch read before the pass). DWS-NC just wakes the home
// workers.
func (m *Machine) regrabHome(p *Program) {
	switch m.cfg.Policy {
	case DWS:
		// The home block is elastic under the arbiter: re-take whatever the
		// current entitlement says is ours.
		epoch := m.table.EntitlementEpoch()
		for _, c := range m.homeOf(p) {
			if p.workers[c].state != wSleeping {
				continue
			}
			occ := m.table.Occupant(c)
			switch {
			case occ == 0:
				if m.table.ClaimFree(c, p.id) {
					p.stats.Claims++
					m.emit(trace.Event{Kind: trace.Claim, Prog: p.id, Core: c})
					m.wakeWorker(p.workers[c])
				}
			case occ != p.id:
				if m.table.Reclaim(c, p.id, occ) {
					p.stats.Reclaims++
					m.emit(trace.Event{Kind: trace.Reclaim, Prog: p.id, Core: c, Victim: occ, Epoch: epoch})
					m.wakeWorker(p.workers[c])
				}
			}
		}
	case DWSNC:
		for _, c := range p.home {
			if p.workers[c].state == wSleeping {
				m.wakeWorker(p.workers[c])
			}
		}
	}
}

// finishRun records a completed run and immediately starts the next one on
// the finishing worker, so co-running programs stay fully overlapped until
// every program reaches its target (then the machine stops).
func (m *Machine) finishRun(p *Program, w *Worker) {
	p.stats.RunTimesUS = append(p.stats.RunTimesUS, m.now-p.runStart)
	p.stats.RunStartsUS = append(p.stats.RunStartsUS, p.runStart)
	p.runsDone++
	m.emit(trace.Event{Kind: trace.RunDone, Prog: p.id, Core: -1,
		LocalSteals: p.stats.LocalSteals, RemoteSteals: p.stats.RemoteSteals})
	if m.jobMode {
		m.jobFinished(p, w)
		return
	}
	if !p.satisfied && p.runsDone >= p.targetRuns {
		p.satisfied = true
		m.checkAllSatisfied()
	}
	if m.stopped {
		p.runActive = false
		return
	}
	m.startRun(p, w)
}

func (m *Machine) checkAllSatisfied() {
	for _, p := range m.progs {
		if !p.satisfied {
			return
		}
	}
	m.stopped = true
}

// scheduleCoordinator arms the periodic coordinator tick (§3.3) for p.
// Ticks are offset by the program index so same-timestamp ties between
// programs resolve deterministically but not always in the same order.
func (m *Machine) scheduleCoordinator(p *Program) {
	if p.coordFn == nil {
		p.coordFn = func() { m.coordTick(p) }
	}
	m.after(m.cfg.CoordPeriodUS+int64(p.idx), p.coordFn)
}

// coordTick is one coordinator pass (§3.3): measure demand (N_b, N_a) and
// the sleeping workers' reachable cores, let arbiter.Plan pick the cores
// to claim and reclaim, and carry the plan out through the core table.
// DWS-NC plans over the sleeping workers alone, with no table traffic.
func (m *Machine) coordTick(p *Program) {
	if m.stopped {
		return
	}
	m.scheduleCoordinator(p)
	if !p.runActive {
		return
	}
	p.stats.CoordTicks++
	p.coordDebt += m.cfg.CoordCostUS

	nb := p.queuedTasks()
	if nb == 0 {
		return
	}
	na := p.active
	nw := arbiter.Want(nb, na)
	if nw <= 0 {
		return
	}
	ev := trace.Event{Kind: trace.CoordTick, Prog: p.id, Core: -1, NB: nb, NA: na, NW: nw}
	if m.cfg.Policy == DWSNC {
		var sleepers []int
		for _, w := range p.workers {
			if w.state == wSleeping {
				sleepers = append(sleepers, w.id)
			}
		}
		// N_w clamped to the sleepers keeps the pass in case 1: a random
		// N_w of them, or all of them in a random order.
		wake, _ := arbiter.Plan(min(nw, len(sleepers)), sleepers, nil, p.rng)
		for _, c := range wake {
			if m.wakeWorker(p.workers[c]) {
				ev.Woken++
			}
		}
		m.emit(ev)
		return
	}

	// Free cores where our affined worker is actually sleeping (it almost
	// always is; skip transient wake-in-flight cores), and the sleeping
	// workers' home cores borrowed by other programs. The home block is
	// the entitled one when the arbiter has published (reclaim stays
	// home-only; only the home itself is elastic).
	var free, borrowed []int
	for _, c := range m.table.FreeCores() {
		if p.workers[c].state == wSleeping {
			free = append(free, c)
		}
	}
	for _, c := range m.homeOf(p) {
		occ := m.table.Occupant(c)
		if occ != p.id && occ != 0 && p.workers[c].state == wSleeping {
			borrowed = append(borrowed, c)
		}
	}
	ev.NF, ev.NR = len(free), len(borrowed)
	epoch := m.table.EntitlementEpoch()
	claim, reclaim := arbiter.Plan(nw, free, borrowed, p.rng)
	for _, c := range claim {
		if !m.table.ClaimFree(c, p.id) {
			continue
		}
		p.stats.Claims++
		ev.Claimed++
		m.emit(trace.Event{Kind: trace.Claim, Prog: p.id, Core: c})
		if m.wakeWorker(p.workers[c]) {
			ev.Woken++
		}
	}
	for _, c := range reclaim {
		occ := m.table.Occupant(c)
		if occ == 0 || occ == p.id || !m.table.Reclaim(c, p.id, occ) {
			continue
		}
		p.stats.Reclaims++
		ev.Reclaimed++
		m.emit(trace.Event{Kind: trace.Reclaim, Prog: p.id, Core: c, Victim: occ, Epoch: epoch})
		if m.wakeWorker(p.workers[c]) {
			ev.Woken++
		}
	}
	m.emit(ev)
}
