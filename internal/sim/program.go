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
	// homeBuf holds the flat entitled home block homeOf last derived.
	homeBuf []int

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
	// coord is the program's coordinator over the core table; coordFn is
	// its tick as an event closure, built once and re-armed every period.
	coord   arbiter.Coordinator
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
		m.regrab(p)
	}
	m.pushTask(w, m.newTask(p.graph.Root, nil))
}

// regrab re-takes p's home block at a run's start
// (arbiter.Coordinator.Regrab): free home cores of sleeping workers are
// claimed and borrowed ones reclaimed (DWS), or the home workers woken
// (DWS-NC).
func (m *Machine) regrab(p *Program) {
	if m.cfg.Policy != DWS && m.cfg.Policy != DWSNC {
		return
	}
	claimed, reclaimed := p.coord.Regrab()
	p.stats.Claims += int64(claimed)
	p.stats.Reclaims += int64(reclaimed)
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

// coordTick is one coordinator pass (§3.3): charge its cost, measure
// demand (N_b, N_a), and let p's arbiter.Coordinator observe, plan and
// act through the core table.
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

	ps, ok := p.coord.Decide(p.queuedTasks(), p.active)
	if !ok {
		return
	}
	ev := p.coord.Act(ps)
	p.stats.Claims += int64(ev.Claimed)
	p.stats.Reclaims += int64(ev.Reclaimed)
}

// crew is the coordinator's view of one program's workers (arbiter.Crew).
type crew struct {
	m *Machine
	p *Program
}

func (c *crew) Asleep(core int) bool { return c.p.workers[core].state == wSleeping }
func (c *crew) Wake(core int) bool   { return c.m.wakeWorker(c.p.workers[core]) }
func (c *crew) Home() []int          { return c.m.homeOf(c.p) }
func (c *crew) Emit(ev trace.Event)  { c.m.emit(ev) }
