package sim

import (
	"math/rand"

	"dws/internal/task"
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
	// victims[i] lists the steal victims of worker i (all other workers
	// under ABP/DWS/DWS-NC; home siblings under EP).
	victims [][]*Worker
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

	// central is the program's single task pool in work-sharing mode
	// (Config.WorkSharing); takes are FIFO.
	central taskQueue

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
// pools: all deques (including sleeping workers') plus the central pool
// in work-sharing mode.
func (p *Program) queuedTasks() int {
	n := p.central.len()
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

func (m *Machine) regrabHome(p *Program) {
	switch m.cfg.Policy {
	case DWS:
		// The home block is elastic under the arbiter: re-take whatever the
		// current entitlement says is ours.
		for _, c := range m.homeOf(p) {
			if p.workers[c].state != wSleeping {
				continue
			}
			occ := m.table.Occupant(c)
			switch {
			case occ == 0:
				if m.table.ClaimFree(c, p.id) {
					p.stats.Claims++
					m.wakeWorker(p.workers[c])
				}
			case occ != p.id:
				if m.table.Reclaim(c, p.id, occ) {
					p.stats.Reclaims++
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
	m.trace("p%d run %d done in %dµs", p.id, p.runsDone, m.now-p.runStart)
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

// coordTick is one coordinator pass: measure demand, then wake sleeping
// workers following the paper's three cases.
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
	nw := nb
	if na > 0 {
		nw = nb / na
	}
	if nw <= 0 {
		return
	}
	m.trace("p%d coord nb=%d na=%d nw=%d", p.id, nb, na, nw)

	switch m.cfg.Policy {
	case DWSNC:
		m.coordWakeNC(p, nw)
	case DWS:
		m.coordWakeDWS(p, nw)
	}
}

// coordWakeNC wakes up to nw sleeping workers with no regard for core
// occupancy (the DWS-NC ablation).
func (p *Program) sleepingWorkers() []*Worker {
	var s []*Worker
	for _, w := range p.workers {
		if w.state == wSleeping {
			s = append(s, w)
		}
	}
	return s
}

func (m *Machine) coordWakeNC(p *Program, nw int) {
	sleepers := p.sleepingWorkers()
	if len(sleepers) == 0 {
		return
	}
	if nw > len(sleepers) {
		nw = len(sleepers)
	}
	for _, i := range p.rng.Perm(len(sleepers))[:nw] {
		m.wakeWorker(sleepers[i])
	}
}

// coordWakeDWS implements §3.3: claim free cores first; if demand still
// exceeds supply, reclaim up to N_r of the program's home cores from their
// borrowers; never touch cores other programs rightfully hold.
func (m *Machine) coordWakeDWS(p *Program, nw int) {
	// Free cores where our affined worker is actually sleeping (it almost
	// always is; skip transient wake-in-flight cores).
	var free []int
	for _, c := range m.table.FreeCores() {
		if p.workers[c].state == wSleeping {
			free = append(free, c)
		}
	}
	// Home cores currently borrowed by other programs. The home block is
	// the entitled one when the arbiter has published (reclaim stays
	// home-only; only the home itself is elastic).
	var borrowed []int
	for _, c := range m.homeOf(p) {
		occ := m.table.Occupant(c)
		if occ != p.id && occ != 0 && p.workers[c].state == wSleeping {
			borrowed = append(borrowed, c)
		}
	}
	nf, nr := len(free), len(borrowed)

	claim := func(core int) {
		if !m.table.ClaimFree(core, p.id) {
			return
		}
		p.stats.Claims++
		m.trace("p%d claims c%d", p.id, core)
		m.wakeWorker(p.workers[core])
	}
	reclaim := func(core int) {
		occ := m.table.Occupant(core)
		if occ == 0 || occ == p.id {
			return
		}
		if !m.table.Reclaim(core, p.id, occ) {
			return
		}
		p.stats.Reclaims++
		m.trace("p%d reclaims c%d from p%d", p.id, core, occ)
		m.wakeWorker(p.workers[core])
	}

	switch {
	case nw <= nf:
		// Case 1: enough free cores; pick nw of them at random.
		for _, i := range p.rng.Perm(nf)[:nw] {
			claim(free[i])
		}
	case nw <= nf+nr:
		// Case 2: all free cores plus (nw-nf) reclaimed home cores.
		for _, c := range free {
			claim(c)
		}
		need := nw - nf
		for _, i := range p.rng.Perm(nr)[:need] {
			reclaim(borrowed[i])
		}
	default:
		// Case 3: demand exceeds everything reachable; take all free cores
		// and all borrowed home cores, nothing more.
		for _, c := range free {
			claim(c)
		}
		for _, c := range borrowed {
			reclaim(c)
		}
	}
}
