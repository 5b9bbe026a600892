package sim

// Open-loop job replay: instead of the paper's closed loop (every program
// re-runs its one graph until a target count), RunOpen feeds each program
// a timed stream of jobs — each its own task graph — through dwsd's own
// admission decision (internal/admit): a job arriving at a full queue is
// rejected (the 429 analog), a job whose deadline passes
// while queued is skipped and never started, and a started job runs to
// completion (kernels are not preemptible) but is counted late if it
// finishes past its deadline.
//
// This is the simulation substrate of internal/scenario: given identical
// configuration, jobs, and seed, a replay is bit-for-bit reproducible on
// the virtual clock.

import (
	"fmt"
	"sort"

	"dws/internal/admit"
	"dws/internal/task"
	"dws/internal/wfq"
)

// Job is one open-loop work item for a program.
type Job struct {
	// AtUS is the arrival time on the simulated clock.
	AtUS int64
	// Graph is the job's task graph (validated by RunOpen).
	Graph *task.Graph
	// DeadlineUS bounds queue wait + run time, measured from AtUS; 0 means
	// no deadline.
	DeadlineUS int64
}

// JobStatus classifies one job's outcome.
type JobStatus int

const (
	// JobOK: completed within its deadline (or had none).
	JobOK JobStatus = iota
	// JobLate: started in time but completed past its deadline.
	JobLate
	// JobExpired: deadline passed while queued; never started.
	JobExpired
	// JobRejected: the program's bounded queue was full at arrival, or the
	// global cap was hit with the arrival itself the worst-placed work.
	JobRejected
	// JobShed: removed from the WFQ backlog under global overload to
	// admit better-placed work; never started (server's "shed" 429).
	JobShed
	// JobEarlyReject: rejected at arrival because the predicted queue
	// wait (service EWMA × backlog ahead) already exceeded the deadline
	// (server's "early_reject" 429).
	JobEarlyReject
)

// String names the status as the scenario reports do.
func (s JobStatus) String() string {
	switch s {
	case JobOK:
		return "ok"
	case JobLate:
		return "late"
	case JobExpired:
		return "expired"
	case JobRejected:
		return "rejected"
	case JobShed:
		return "shed"
	case JobEarlyReject:
		return "early_reject"
	default:
		return fmt.Sprintf("JobStatus(%d)", int(s))
	}
}

// JobOutcome is the terminal record of one job.
type JobOutcome struct {
	// Prog is the program index (RunOpen's Jobs index).
	Prog int
	// Index is the job's index within its program's stream.
	Index int
	// AtUS echoes the arrival time.
	AtUS int64
	// Status is the terminal classification.
	Status JobStatus
	// StartUS is when execution began (-1 for rejected/expired jobs);
	// StartUS-AtUS is the queue wait.
	StartUS int64
	// DoneUS is when execution completed (-1 if the job never ran);
	// DoneUS-AtUS is the end-to-end latency.
	DoneUS int64
}

// openJob is a Job in flight, with its stream index and start time.
type openJob struct {
	Job
	idx     int
	startUS int64
}

// OpenOpts configures an open-loop replay.
type OpenOpts struct {
	// Jobs[i] is program i's job stream, sorted by AtUS. Streams may be
	// empty (a tenant that only churns), but at least one job must exist
	// overall.
	Jobs [][]Job
	// JoinsUS[i], when non-nil, is program i's activation time: its workers
	// participate only from then on (tenant churn). nil means everyone is
	// present from time 0. A program's first job must not precede its join.
	JoinsUS []int64
	// QueueCap bounds each program's pending queue (the running job is not
	// counted); ≤0 defaults to 16, dwsd's default admission depth.
	QueueCap int
	// HorizonUS aborts the replay at this simulated time; 0 means none.
	HorizonUS int64
	// SampleUS, when positive, records core-occupancy samples as in
	// RunOpts.
	SampleUS int64
	// Admission configures the front door every arrival passes — the
	// server's own (internal/admit over internal/wfq): weighted fair
	// queueing across programs, shed-from-max-tail under a global backlog
	// cap, and deadline-aware early rejection. nil means the zero value:
	// equal weights, no global cap, no early rejection, which behaves as
	// independent bounded per-program FIFOs.
	Admission *AdmissionOpts
}

// AdmissionOpts configures the WFQ front-door analog.
type AdmissionOpts struct {
	// Weights[i] is program i's WFQ weight (values ≤ 0 clamp to 1); nil
	// means all 1.
	Weights []float64
	// GlobalCap caps the total backlog across programs; at the cap an
	// arrival displaces the worst-placed queued tail in virtual time if
	// there is one, and is rejected otherwise. ≤0 means no global cap.
	GlobalCap int
	// EarlyReject enables deadline-aware early rejection: a job whose
	// predicted queue wait (service EWMA × jobs ahead, including the one
	// running) strictly exceeds its deadline resolves JobEarlyReject at
	// arrival.
	EarlyReject bool
}

// RunOpen replays the job streams and returns results with the Jobs
// outcome log populated (sorted by program, then stream index). The
// machine cannot be reused.
func (m *Machine) RunOpen(opts OpenOpts) (*Results, error) {
	if m.nEv > 0 || m.jobMode {
		return nil, fmt.Errorf("%w: machine already ran", ErrBadConfig)
	}
	if len(opts.Jobs) != len(m.progs) {
		return nil, fmt.Errorf("%w: %d job streams for %d programs",
			ErrBadConfig, len(opts.Jobs), len(m.progs))
	}
	if opts.JoinsUS != nil && len(opts.JoinsUS) != len(m.progs) {
		return nil, fmt.Errorf("%w: %d join times for %d programs",
			ErrBadConfig, len(opts.JoinsUS), len(m.progs))
	}
	total := 0
	var valid task.Validator
	for i, js := range opts.Jobs {
		join := int64(0)
		if opts.JoinsUS != nil {
			join = opts.JoinsUS[i]
		}
		last := join
		for k, j := range js {
			if j.AtUS < last {
				return nil, fmt.Errorf("%w: program %d job %d at %dµs out of order (prev %dµs / join)",
					ErrBadConfig, i, k, j.AtUS, last)
			}
			last = j.AtUS
			if j.DeadlineUS < 0 {
				return nil, fmt.Errorf("%w: program %d job %d negative deadline", ErrBadConfig, i, k)
			}
			if err := valid.Validate(j.Graph); err != nil {
				return nil, fmt.Errorf("sim: program %d job %d: %w", i, k, err)
			}
		}
		total += len(js)
	}
	if total == 0 {
		return nil, fmt.Errorf("%w: no jobs", ErrBadConfig)
	}

	if err := m.armAdmission(opts.QueueCap, opts.Admission); err != nil {
		return nil, err
	}

	m.jobMode = true
	m.jobsOutstanding = total
	for i, p := range m.progs {
		p := p
		join := int64(0)
		if opts.JoinsUS != nil {
			join = opts.JoinsUS[i]
		}
		activate := func() {
			m.activateProgram(p)
			if m.cfg.Policy == DWS || m.cfg.Policy == DWSNC {
				m.scheduleCoordinator(p)
			}
		}
		if join <= 0 {
			activate()
		} else {
			m.schedule(join, activate)
		}
		m.armArrivals(p, opts.Jobs[i])
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

	err := m.loop(opts.HorizonUS)
	return m.results(), err
}

// armArrivals feeds p its job stream one arrival ahead. The stream's seqs
// are reserved here, all at once and in stream order — exactly the seqs the
// arrivals would draw if each were pushed now — but only the first arrival
// is armed; each arrival arms its successor under the successor's reserved
// seq before it offers its own job. A successor sorts after its
// predecessor (later or equal time, larger seq), so it is in the heap
// before anything that must fire after it can pop: the pop order, and with
// it every result, is that of arming the whole stream up front, while the
// heap holds one arrival a program instead of the replay's future.
func (m *Machine) armArrivals(p *Program, js []Job) {
	if len(js) == 0 {
		return
	}
	first := m.seq + 1
	m.seq += int64(len(js))
	jobs := make([]openJob, len(js))
	next := 0
	var arrive func()
	arrive = func() {
		k := next
		next++
		if next < len(js) {
			m.armSeq(js[next].AtUS, first+int64(next), event{kind: evFn, fn: arrive})
		}
		j := &jobs[k]
		*j = openJob{Job: js[k], idx: k, startUS: -1}
		if v := m.offer(p, j); v != admit.Admitted {
			m.jobDone(p, j, refusalStatus(v))
		}
	}
	m.armSeq(js[0].AtUS, first, event{kind: evFn, fn: arrive})
}

// armAdmission builds the machine's front door: one WFQ flow per program
// and the fixed limits every offer is decided under. A nil adm is the
// zero value; queueCap ≤ 0 defaults to 16, dwsd's default depth.
func (m *Machine) armAdmission(queueCap int, adm *AdmissionOpts) error {
	if adm == nil {
		adm = &AdmissionOpts{}
	}
	if adm.Weights != nil && len(adm.Weights) != len(m.progs) {
		return fmt.Errorf("%w: %d admission weights for %d programs",
			ErrBadConfig, len(adm.Weights), len(m.progs))
	}
	if queueCap <= 0 {
		queueCap = 16
	}
	m.admLimits = admit.Limits{Depth: queueCap, GlobalCap: adm.GlobalCap, EarlyReject: adm.EarlyReject}
	m.adm = wfq.New[*openJob]()
	for i := range m.progs {
		w := 1.0
		if adm.Weights != nil {
			w = adm.Weights[i]
		}
		m.adm.AddFlow(i, w)
	}
	return nil
}

// offer presents one job to the machine at its current clock: an idle
// program starts it at once, a busy one puts it to the shared admission
// core (µs ticks; the deadline budget is what spill delays have left of
// it — for an unspilled arrival m.now == AtUS and that is the whole
// deadline). On admit.Admitted the machine owns the job and its log will
// resolve it; a refusal is the caller's to resolve. A job shed to make
// room resolves here, through jobDone.
func (m *Machine) offer(p *Program, j *openJob) admit.Verdict {
	if p.curJob == nil && !p.runActive {
		m.startJob(p, j, p.workers[p.home[0]])
		return admit.Admitted
	}
	budget := j.AtUS + j.DeadlineUS - m.now
	d := admit.Decide(m.adm, p.idx, j, m.admLimits, admit.Arrival{
		EWMA:        p.svcEWMAUS,
		InService:   true, // the idle case started above
		HasDeadline: j.DeadlineUS > 0,
		Budget:      budget,
		Cost:        float64(admit.Charge(p.svcEWMAUS, m.svcFallbackUS)),
	})
	switch d.Verdict {
	case admit.EarlyReject:
		m.trace("p%d job %d early-rejected (predicted %dµs > remaining %dµs)",
			p.id, j.idx, d.Predicted, budget)
	case admit.QueueFull:
		m.trace("p%d job %d rejected (queue full)", p.id, j.idx)
	case admit.Overload:
		m.trace("p%d job %d rejected (global cap, worst placed)", p.id, j.idx)
	}
	if d.DidShed {
		m.trace("p%d job %d shed for p%d job %d (global cap)",
			m.progs[d.VictimFlow].id, d.Victim.idx, p.id, j.idx)
		m.jobDone(m.progs[d.VictimFlow], d.Victim, JobShed)
	}
	return d.Verdict
}

// refusalStatus maps a refusing verdict onto the outcome log's
// vocabulary, which keeps queue-full and overload together as "rejected".
func refusalStatus(v admit.Verdict) JobStatus {
	if v == admit.EarlyReject {
		return JobEarlyReject
	}
	return JobRejected
}

// startJob begins executing j (skipping over queued jobs whose deadline
// already expired — the server's runner does the same at dequeue). The
// root task is pushed onto w's deque; sleeper policies re-take their home
// share, and a GO push wakes a parked worker, so someone always comes for
// it.
func (m *Machine) startJob(p *Program, j *openJob, w *Worker) {
	for j.DeadlineUS > 0 && m.now > j.AtUS+j.DeadlineUS {
		m.trace("p%d job %d expired after %dµs queued", p.id, j.idx, m.now-j.AtUS)
		m.jobDone(p, j, JobExpired)
		if m.stopped || m.adm.Len(p.idx) == 0 {
			p.curJob = nil
			p.runActive = false
			return
		}
		j, _ = m.adm.Pop(p.idx)
	}
	p.curJob = j
	j.startUS = m.now
	p.graph = j.Graph
	p.runActive = true
	p.runStart = m.now
	m.trace("p%d job %d starts after %dµs queued", p.id, j.idx, m.now-j.AtUS)
	m.regrabHome(p)
	m.pushTask(w, m.newTask(j.Graph.Root, nil))
	// The push came from the arrival event, not a running worker, so the
	// target itself may be mid-spin; a nil pusher notifies every spinner,
	// including w (dedup via notifyPending keeps this cheap).
	m.notifySpinners(p, nil)
}

// jobFinished is finishRun's open-loop tail: record the outcome and start
// the next queued job on the finishing worker.
func (m *Machine) jobFinished(p *Program, w *Worker) {
	j := p.curJob
	p.curJob = nil
	p.runActive = false
	// Fold the run into the service EWMAs (the server's observeRun on the
	// virtual clock).
	if d := m.now - j.startUS; d >= 0 {
		p.svcEWMAUS = admit.Fold(p.svcEWMAUS, d)
		m.svcFallbackUS = admit.Fold(m.svcFallbackUS, d)
	}
	st := JobOK
	if j.DeadlineUS > 0 && m.now > j.AtUS+j.DeadlineUS {
		st = JobLate
	}
	m.jobDone(p, j, st)
	if m.stopped || m.adm.Len(p.idx) == 0 {
		return
	}
	next, _ := m.adm.Pop(p.idx)
	m.startJob(p, next, w)
}

// jobDone records a terminal outcome and stops the machine when the last
// job resolves. In federated mode a shed job is handed back to the
// federation driver for spill-over instead of being logged as terminal,
// and the machine neither counts jobs nor self-stops — the driver owns
// termination.
func (m *Machine) jobDone(p *Program, j *openJob, st JobStatus) {
	if m.fedShed != nil && st == JobShed {
		m.fedShed(p, j)
		return
	}
	done := int64(-1)
	if st == JobOK || st == JobLate {
		done = m.now
	}
	m.jobLog = append(m.jobLog, JobOutcome{
		Prog:    p.idx,
		Index:   j.idx,
		AtUS:    j.AtUS,
		Status:  st,
		StartUS: j.startUS,
		DoneUS:  done,
	})
	if m.fedMode {
		return
	}
	m.jobsOutstanding--
	if m.jobsOutstanding == 0 {
		m.stopped = true
	}
}

// sortedJobLog returns the outcome log in canonical (program, index)
// order.
func (m *Machine) sortedJobLog() []JobOutcome {
	log := append([]JobOutcome(nil), m.jobLog...)
	sort.Slice(log, func(i, k int) bool {
		if log[i].Prog != log[k].Prog {
			return log[i].Prog < log[k].Prog
		}
		return log[i].Index < log[k].Index
	})
	return log
}
