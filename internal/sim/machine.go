package sim

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"dws/internal/admit"
	"dws/internal/arbiter"
	"dws/internal/coretable"
	"dws/internal/task"
	"dws/internal/topo"
	"dws/internal/wfq"
)

// recheckUS bounds how long a spinning thief goes without rescanning its
// victims (covers the rare case where tasks exist but random draws missed).
const recheckUS = 1000

// Machine is one simulated multi-core machine executing a set of
// co-running work-stealing programs under a single policy.
type Machine struct {
	cfg    Config
	now    int64
	seq    int64
	nEv    int64
	events eventHeap

	cores []*Core
	progs []*Program
	topo  *topo.Topology   // socket layout derived from Config.SocketSize
	table *coretable.Table // non-nil only under DWS
	arb   *arbiter.Arbiter // non-nil only with Config.ArbiterPeriodUS > 0

	stopped bool
	samples []Sample

	// Task recycling: finished simTasks wait on freeTasks (linked through
	// parent); taskSlab is the unused rest of the newest slab.
	freeTasks *simTask
	taskSlab  []simTask
	// progStamp[id] == progEpoch marks program id as already counted in
	// the current otherProgsOnSocket scan.
	progStamp []int64
	progEpoch int64

	// Open-loop state (RunOpen): jobMode switches finishRun's tail from the
	// closed-loop restart to the job queue; jobsOutstanding counts jobs not
	// yet terminal (RunOpen only; a federated machine does not count);
	// jobLog accumulates outcomes in completion order.
	jobMode         bool
	jobsOutstanding int
	jobLog          []JobOutcome

	// Federated open-loop state (RunFederation): fedMode keeps the machine
	// from self-stopping when its local job count hits zero (the driver
	// injects jobs over time and owns termination); fedShed, when
	// non-nil, intercepts shed jobs so the driver can spill them to a
	// sibling shard instead of logging a terminal outcome here.
	fedMode bool
	fedShed func(p *Program, j *openJob)

	// The front door (armAdmission): every open-loop job's backlog lives
	// in one weighted fair queue across programs, and admLimits are the
	// fixed settings admit.Decide rules each arrival under.
	adm       *wfq.Queue[*openJob]
	admLimits admit.Limits
	// svcFallbackUS is the machine-wide run-time EWMA that admit.Charge
	// prices programs with no service history of their own at — the sim
	// analog of the server admission's fallbackNanos.
	svcFallbackUS int64

	// Trace, when non-nil, receives a line for every notable scheduling
	// event (sleeps, wakes, claims, reclaims, evictions, coordinator
	// decisions, run completions). Used by tests and the dwssim CLI's
	// -trace flag.
	Trace func(timeUS int64, format string, args ...any)
}

func (m *Machine) trace(format string, args ...any) {
	if m.Trace != nil {
		m.Trace(m.now, format, args...)
	}
}

// NewMachine builds a machine running one program per graph. Graphs are
// validated; the i-th program's home cores follow the paper's even
// initial allocation.
func NewMachine(cfg Config, graphs []*task.Graph) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(graphs) == 0 {
		return nil, ErrNoPrograms
	}
	if len(graphs) > cfg.Cores {
		return nil, ErrTooManyProg
	}
	var valid task.Validator
	for _, g := range graphs {
		if err := valid.Validate(g); err != nil {
			return nil, fmt.Errorf("sim: graph %q: %w", g.Name, err)
		}
	}
	if cfg.Weights != nil && len(cfg.Weights) != len(graphs) {
		return nil, fmt.Errorf("%w: %d weights for %d programs",
			ErrBadConfig, len(cfg.Weights), len(graphs))
	}

	m := &Machine{
		cfg:       cfg,
		topo:      topo.Uniform(cfg.Cores, cfg.SocketSize),
		progStamp: make([]int64, len(graphs)+1),
	}

	for i := 0; i < cfg.Cores; i++ {
		m.cores = append(m.cores, &Core{id: i, socket: i / cfg.SocketSize})
	}
	if cfg.Policy == DWS {
		m.table = coretable.NewMem(cfg.Cores)
		if cfg.ArbiterPeriodUS > 0 {
			m.arb = arbiter.New(arbiter.Config{Cores: cfg.Cores}, m.table)
		}
	}

	for i, g := range graphs {
		p := &Program{
			id:    int32(i + 1),
			idx:   i,
			name:  g.Name,
			graph: g,
			rng:   rand.New(rand.NewSource(cfg.Seed + int64(i)*7919)),
			home:  coretable.HomeCores(cfg.Cores, len(graphs), i),
		}
		for c := 0; c < cfg.Cores; c++ {
			p.workers = append(p.workers, &Worker{
				prog: p, id: c, socket: c / cfg.SocketSize,
				state: wOff, robbedFrom: -1,
			})
		}
		p.inState[wOff] = cfg.Cores
		m.progs = append(m.progs, p)
	}
	m.buildVictimSets()
	// Workers of sleeper policies participate from the start (asleep until
	// their program arrives and takes its home share); other policies'
	// workers stay off until arrival.
	if cfg.Policy == DWS || cfg.Policy == DWSNC || cfg.Policy == GO {
		for _, p := range m.progs {
			for _, w := range p.workers {
				w.setState(wSleeping)
			}
		}
	}
	return m, nil
}

// buildVictimSets precomputes each worker's steal victims. On a
// multi-socket machine (unless Config.NoLocality) the list is partitioned:
// the worker's same-socket siblings first (the nLocal prefix), then the
// remote ones grouped by ascending socket — nextVictim scans the local
// segment before the remote one each pass. A flat machine keeps the
// pre-topology flat list with nLocal covering everything.
func (m *Machine) buildVictimSets() {
	flat := m.cfg.NoLocality || m.topo.Flat()
	for _, p := range m.progs {
		pool := p.workers
		if m.cfg.Policy == EP {
			pool = nil
			for _, c := range p.home {
				pool = append(pool, p.workers[c])
			}
		}
		p.victims = make([][]*Worker, m.cfg.Cores)
		for _, w := range p.workers {
			var vs []*Worker
			if flat {
				for _, v := range pool {
					if v != w {
						vs = append(vs, v)
					}
				}
				w.nLocal = len(vs)
				p.victims[w.id] = vs
				continue
			}
			for _, v := range pool {
				if v != w && v.socket == w.socket {
					vs = append(vs, v)
				}
			}
			w.nLocal = len(vs)
			for s := 0; s < m.topo.NumSockets(); s++ {
				if s == w.socket {
					continue
				}
				for _, v := range pool {
					if v.socket == s {
						vs = append(vs, v)
					}
				}
			}
			p.victims[w.id] = vs
		}
	}
}

// activateProgram brings a program online at its arrival time: it takes
// its initial even core share per the policy and makes the corresponding
// workers runnable. A program arriving late into a DWS machine claims its
// free home cores and reclaims borrowed ones, exactly like a freshly
// launched process in the paper.
func (m *Machine) activateProgram(p *Program) {
	makeReady := func(core int) {
		w := p.workers[core]
		if w.state != wOff && w.state != wSleeping {
			return
		}
		w.setState(wReady)
		p.active++
		c := m.cores[core]
		c.runq = append(c.runq, w)
		if c.cur == nil {
			m.dispatch(c)
		} else {
			m.armQuantum(c)
		}
	}
	switch m.cfg.Policy {
	case ABP:
		// Time-sharing: a runnable worker on every core.
		for c := 0; c < m.cfg.Cores; c++ {
			makeReady(c)
		}
	case EP:
		for _, c := range p.home {
			makeReady(c)
		}
	case DWS:
		if m.now == 0 {
			m.table.InstallHome(p.home, p.id)
			for _, c := range p.home {
				makeReady(c)
			}
			return
		}
		m.regrabHome(p) // claim free homes, reclaim borrowed ones
	case DWSNC:
		if m.now == 0 {
			for _, c := range p.home {
				makeReady(c)
			}
			return
		}
		for _, c := range p.home {
			if p.workers[c].state == wSleeping {
				m.wakeWorker(p.workers[c])
			}
		}
	case GO:
		// Goroutine-per-task: nothing runs until work is pushed; the push
		// itself wakes a parked worker (wakepGO), so arrival is a no-op.
	}
}

// RunOpts controls a simulation run.
type RunOpts struct {
	// TargetRuns is how many completed runs each program needs before the
	// machine stops (Fig. 3: programs keep re-running so executions
	// overlap). Minimum 1.
	TargetRuns int
	// HorizonUS aborts the simulation at this simulated time; 0 means no
	// horizon.
	HorizonUS int64
	// SampleUS, when positive, records a core-occupancy sample (which
	// program is running on each core) every SampleUS µs into
	// Results.Samples — the data behind the dwssim timeline view.
	SampleUS int64
	// ArrivalsUS optionally staggers program launches: program i arrives
	// at ArrivalsUS[i] (µs). nil means everyone arrives at time 0, the
	// paper's setup. A late DWS program takes its home share on arrival
	// (claiming free cores, reclaiming borrowed ones), so the machine is
	// elastic across arrivals.
	ArrivalsUS []int64
}

// Errors returned by Run.
var (
	ErrHorizon  = errors.New("sim: horizon reached before target runs completed")
	ErrStalled  = errors.New("sim: event queue drained before target runs completed (scheduler deadlock)")
	ErrExploded = errors.New("sim: MaxEvents exceeded")
)

// Run executes the simulation until every program completes opts.TargetRuns
// runs. It returns per-program results; the machine cannot be reused.
func (m *Machine) Run(opts RunOpts) (*Results, error) {
	if opts.TargetRuns < 1 {
		opts.TargetRuns = 1
	}
	if opts.ArrivalsUS != nil && len(opts.ArrivalsUS) != len(m.progs) {
		return nil, fmt.Errorf("sim: %d arrival times for %d programs",
			len(opts.ArrivalsUS), len(m.progs))
	}
	launch := func(p *Program) {
		// The run must be active before any worker is dispatched, or idle
		// workers would read the program as finished and retire.
		m.startRun(p, p.workers[p.home[0]])
		m.activateProgram(p)
		if m.cfg.Policy == DWS || m.cfg.Policy == DWSNC {
			m.scheduleCoordinator(p)
		}
	}
	for i, p := range m.progs {
		p.targetRuns = opts.TargetRuns
		arrival := int64(0)
		if opts.ArrivalsUS != nil {
			arrival = opts.ArrivalsUS[i]
		}
		if arrival <= 0 {
			launch(p)
		} else {
			p := p
			m.schedule(arrival, func() { launch(p) })
		}
	}
	for _, c := range m.cores {
		if c.cur == nil {
			m.dispatch(c)
		}
	}
	if m.arb != nil {
		m.scheduleArbiter()
	}
	m.startSampling(opts.SampleUS)

	if err := m.loop(opts.HorizonUS); err != nil {
		return m.results(), err
	}
	return m.results(), nil
}

// startSampling arms the periodic core-occupancy sampler (no-op for
// sampleUS <= 0).
func (m *Machine) startSampling(sampleUS int64) {
	if sampleUS <= 0 {
		return
	}
	var sample func()
	sample = func() {
		if m.stopped {
			return
		}
		s := Sample{AtUS: m.now, Running: make([]int32, len(m.cores))}
		for i, c := range m.cores {
			if c.cur != nil {
				s.Running[i] = c.cur.prog.id
			}
		}
		m.samples = append(m.samples, s)
		m.after(sampleUS, sample)
	}
	m.after(sampleUS, sample)
}

// loop drains the event heap until the machine stops, the horizon passes,
// or the event budget is exhausted. Shared by the closed-loop Run and the
// open-loop RunOpen.
func (m *Machine) loop(horizonUS int64) error {
	for len(m.events) > 0 && !m.stopped {
		if horizonUS > 0 && m.events[0].at > horizonUS {
			return ErrHorizon
		}
		if err := m.step(); err != nil {
			return err
		}
	}
	if !m.stopped {
		return ErrStalled
	}
	return nil
}

// getWork is the worker loop of Algorithm 1: check for eviction, take from
// the own pool, otherwise steal. w must be its core's scheduled worker.
func (m *Machine) getWork(w *Worker) {
	p := w.prog
	// Eviction check (DWS only): an active worker whose core is no longer
	// occupied by its program stops and sleeps without releasing.
	if m.table != nil && m.table.Occupant(w.id) != p.id {
		m.table.AckEviction(w.id)
		p.stats.Evictions++
		m.trace("p%d w%d evicted", p.id, w.id)
		m.parkWorker(w, false)
		return
	}
	if m.cfg.WorkSharing {
		if t := p.central.steal(); t != nil {
			w.failedSteals = 0
			m.runTask(w, t)
			return
		}
		m.idleSpin(w)
		return
	}
	if t := w.deque.pop(); t != nil {
		w.failedSteals = 0
		m.runTask(w, t)
		return
	}
	m.stealLoop(w)
}

// stealLoop models the stealing phase. Successful steals happen
// immediately with their latency folded into the stolen task's first
// segment; failure paths always advance simulated time (spin, sleep, or
// rotate), so the machine cannot livelock at one timestamp.
func (m *Machine) stealLoop(w *Worker) {
	p := w.prog
	cfg := &m.cfg
	victims := p.victims[w.id]
	c := m.cores[w.id]

	anyTasks := false
	for _, v := range victims {
		if v.deque.len() > 0 {
			anyTasks = true
			break
		}
	}

	if anyTasks {
		maxDraw := 2 * len(victims)
		for a := 1; a <= maxDraw; a++ {
			v := w.nextVictim(victims)
			if t := v.deque.steal(); t != nil {
				w.failedSteals = 0
				w.passSteal = true
				p.stats.Steals++
				lat := int64(a) * cfg.StealCostUS
				if v.socket != w.socket {
					lat += cfg.RemoteStealPenaltyUS
					p.stats.RemoteSteals++
					v.robbedFrom = w.socket
				} else {
					p.stats.LocalSteals++
				}
				w.pendingLatency += lat
				m.runTask(w, t)
				return
			}
			// A failed draw while work is visible does not count toward the
			// sleep threshold: a real thief scans victims in sub-µs steps
			// and reaches visible work orders of magnitude faster than the
			// yield-paced drought attempts that T_SLEEP is calibrated for.
			w.failedSteals++
			p.stats.FailedSteals++
			if cfg.Policy == ABP && cfg.StrongYield && len(c.runq) > 1 {
				m.yieldRotate(c)
				return
			}
		}
	}

	m.idleSpin(w)
}

// idleSpin is the drought path shared by the stealing and work-sharing
// modes: no task is reachable right now, so spin until a push, a
// preemption, the periodic recheck, or — for sleeper policies — the
// T_SLEEP threshold. Sleeper policies back off StealYieldUS between
// attempts, so the tolerated drought is ≈ TSleep × (StealCost + Yield).
func (m *Machine) idleSpin(w *Worker) {
	p := w.prog
	cfg := &m.cfg
	sleeper := cfg.Policy == DWS || cfg.Policy == DWSNC || cfg.Policy == GO
	if sleeper && m.canSleep(p) {
		left := cfg.TSleep - w.failedSteals + 1
		if left < 1 {
			left = 1
		}
		period := cfg.StealCostUS + cfg.StealYieldUS
		m.beginSpin(w, m.now+int64(left)*period, period, evSpinPark)
		return
	}
	// Weak-yield thieves, strong-yield thieves with nothing visible to
	// steal (yielding here would re-run this decision at the same instant,
	// livelocking the event loop), and the last active worker of a DWS
	// program burn cycles until preempted, notified, or the periodic
	// recheck.
	m.beginSpin(w, m.now+recheckUS, cfg.StealCostUS, evSpinRecheck)
}

// yieldRotate models an effective sched_yield: the scheduled worker goes
// to the back of the run queue and the next one runs.
func (m *Machine) yieldRotate(c *Core) {
	w := c.cur
	m.preempt(w)
	c.unschedule(m.now)
	c.rotate()
	m.dispatch(c)
}

// canSleep reports whether one more worker of p may sleep: the last active
// worker of a program with an unfinished run must keep stealing (liveness;
// see DESIGN.md §5).
func (m *Machine) canSleep(p *Program) bool {
	return !p.runActive || p.active > 1
}

// parkWorker puts the scheduled worker to sleep. If release is true the
// worker releases its core in the allocation table (voluntary sleep after
// T_SLEEP failures); eviction sleeps pass false.
func (m *Machine) parkWorker(w *Worker, release bool) {
	p := w.prog
	c := m.cores[w.id]
	if c.cur != w {
		panic("sim: parking a worker that is not scheduled")
	}
	w.gen++
	w.setState(wSleeping)
	p.active--
	if p.active < 0 {
		panic("sim: negative active worker count")
	}
	p.stats.Sleeps++
	c.removeFromRunq(w)
	c.unschedule(m.now)
	if release && m.table != nil {
		m.table.Release(w.id, p.id)
	}
	m.trace("p%d w%d sleeps (release=%v active=%d)", p.id, w.id, release, p.active)
	m.dispatch(c)
}

// wakeWorker transitions a sleeping worker to runnable after WakeLatencyUS.
func (m *Machine) wakeWorker(w *Worker) {
	if w.state != wSleeping {
		return
	}
	p := w.prog
	w.setState(wWaking)
	p.active++
	p.stats.Wakes++
	m.arm(m.now+m.cfg.WakeLatencyUS, event{kind: evWake, w: w})
}

// wakeArrived makes a waking worker runnable on its core once the wake
// latency has elapsed.
func (m *Machine) wakeArrived(w *Worker) {
	if w.state != wWaking {
		return
	}
	w.setState(wReady)
	w.failedSteals = 0
	c := m.cores[w.id]
	c.runq = append(c.runq, w)
	if c.cur == nil {
		m.dispatch(c)
	} else {
		m.armQuantum(c)
	}
}

// runTask begins executing t's current stage on w.
func (m *Machine) runTask(w *Worker, t *simTask) {
	w.cur = t
	w.setState(wRunning)
	w.remaining = float64(t.stageWork())
	m.scheduleSegment(w)
}

// scheduleSegment freezes the cache/LLC rate parameters and schedules the
// completion of w's current segment.
func (m *Machine) scheduleSegment(w *Worker) {
	p := w.prog
	c := m.cores[w.id]
	if c.cur != w {
		panic("sim: scheduling a segment for an unscheduled worker")
	}
	intensity := p.graph.MemIntensity

	// Private-cache warmth: switching the core to a different program
	// starts a refill window.
	if c.cacheProg != p.id {
		c.cacheProg = p.id
		c.coldUntil = m.now + int64(float64(m.cfg.CacheWarmUS)*intensity)
	}
	w.segColdUntil = c.coldUntil
	w.segColdFactor = 1 + (m.cfg.CachePenalty-1)*intensity
	// Not the constant 1: (1-x)+x rounds away from 1 for some x, and the
	// gated figures were recorded with this sum.
	base := (1 - intensity) + intensity
	w.segWarmRate = base * (1 +
		m.cfg.LLCPenalty*intensity*float64(m.otherProgsOnSocket(c, p.id)) +
		m.cfg.SpinContention*float64(m.spinnersOnSocket(c)))

	// Pending coordinator overhead lands on the program's next segment.
	if p.coordDebt > 0 {
		w.pendingLatency += p.coordDebt
		p.coordDebt = 0
	}

	latency := w.pendingLatency
	w.pendingLatency = 0
	w.segEffStart = m.now + latency
	wall := wallFor(w.remaining, w.segEffStart, w.segColdUntil, w.segWarmRate, w.segColdFactor)
	dur := latency + int64(math.Ceil(wall))
	m.arm(m.now+dur, event{kind: evSegmentDone, w: w, gen: w.gen})
}

// otherProgsOnSocket counts distinct other programs currently executing a
// segment on c's socket (the shared-LLC contention degree).
func (m *Machine) otherProgsOnSocket(c *Core, pid int32) int {
	s0 := c.socket * m.cfg.SocketSize
	s1 := s0 + m.cfg.SocketSize
	if s1 > m.cfg.Cores {
		s1 = m.cfg.Cores
	}
	m.progEpoch++
	n := 0
	for i := s0; i < s1; i++ {
		oc := m.cores[i]
		if oc.cur == nil || oc.cur.cur == nil {
			continue
		}
		op := oc.cur.prog.id
		if op != pid && m.progStamp[op] != m.progEpoch {
			m.progStamp[op] = m.progEpoch
			n++
		}
	}
	return n
}

// spinnersOnSocket counts scheduled workers currently burning cycles in
// the steal loop on c's socket (they contend on victims' deque lines).
func (m *Machine) spinnersOnSocket(c *Core) int {
	s0 := c.socket * m.cfg.SocketSize
	s1 := s0 + m.cfg.SocketSize
	if s1 > m.cfg.Cores {
		s1 = m.cfg.Cores
	}
	n := 0
	for i := s0; i < s1; i++ {
		if cur := m.cores[i].cur; cur != nil && cur.state == wSpinning {
			n++
		}
	}
	return n
}

// onSegmentDone handles completion of the current stage's serial work:
// spawn the stage's children, or advance/join.
func (m *Machine) onSegmentDone(w *Worker) {
	t := w.cur
	w.prog.stats.WorkUS += w.remaining
	w.remaining = 0
	children := t.stageChildren()
	if len(children) > 0 {
		t.pending = len(children)
		for _, cn := range children {
			m.pushTask(w, m.newTask(cn, t))
		}
		w.cur = nil
		m.getWork(w)
		return
	}
	m.stageJoined(w, t)
}

// stageJoined advances t past its current stage (whose children, if any,
// have all completed) and continues on w.
func (m *Machine) stageJoined(w *Worker, t *simTask) {
	t.stage++
	if t.stage < len(t.node.Stages) {
		m.runTask(w, t)
		return
	}
	m.taskDone(w, t)
}

// taskDone propagates completion to the parent join; the worker that
// completes the last child continues the parent (continuation runs there).
func (m *Machine) taskDone(w *Worker, t *simTask) {
	par := t.parent
	m.freeTask(t)
	if par == nil {
		m.finishRun(w.prog, w)
		w.cur = nil
		if m.stopped {
			// Leave the worker idle; the event loop is about to stop.
			w.setState(wReady)
			return
		}
		m.getWork(w)
		return
	}
	par.pending--
	if par.pending == 0 {
		m.stageJoined(w, par)
		return
	}
	w.cur = nil
	m.getWork(w)
}
