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
// the virtual clock. RunFederation drives K machines through the same
// arming (armOpen) and the same event loop.

import (
	"fmt"
	"sort"

	"dws/internal/admit"
	"dws/internal/task"
	"dws/internal/trace"
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
	// Index is the job's index within its program's stream (on a
	// federated shard, within FedOpts.Jobs).
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
	// Admission configures the front door every arrival passes — the
	// server's own (internal/admit over internal/wfq): weighted fair
	// queueing across programs, shed-from-max-tail under a global backlog
	// cap, and deadline-aware early rejection. Flow weights are
	// Config.Weights. nil means the zero value: no global cap and no early
	// rejection, which under equal weights behaves as independent bounded
	// per-program FIFOs.
	Admission *AdmissionOpts
}

// AdmissionOpts configures the WFQ front-door analog.
type AdmissionOpts struct {
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
		last := joinAt(opts.JoinsUS, i)
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

	streams := make([][]openJob, len(opts.Jobs))
	for i, js := range opts.Jobs {
		streams[i] = make([]openJob, len(js))
		for k, j := range js {
			streams[i][k] = openJob{Job: j, idx: k, startUS: -1}
		}
	}
	m.armOpen(opts.QueueCap, opts.Admission, opts.JoinsUS, streams, &total)
	err := loop([]*Machine{m}, opts.HorizonUS)
	return m.results(), err
}

// armOpen readies m for an open-loop replay: it builds the front door,
// brings each program online at its join (nil joins: everyone at 0), and
// arms each program's stream. outstanding is the replay's count of jobs
// not yet terminal; RunOpen gives each machine its own, a federation one
// for all its shards.
func (m *Machine) armOpen(queueCap int, adm *AdmissionOpts, joins []int64, streams [][]openJob, outstanding *int) {
	m.armAdmission(queueCap, adm)
	m.jobMode = true
	m.outstanding = outstanding
	for i, p := range m.progs {
		m.join(p, joinAt(joins, i))
		m.armArrivals(p, streams[i])
	}
	m.start()
}

// armArrivals feeds p its job stream one arrival ahead. The stream's seqs
// are reserved here, all at once and in stream order — exactly the seqs the
// arrivals would draw if each were pushed now — but only the first arrival
// is armed; each arrival arms its successor under the successor's reserved
// seq before it delivers its own job. A successor sorts after its
// predecessor (later or equal time, larger seq), so it is in the heap
// before anything that must fire after it can pop: the pop order, and with
// it every result, is that of arming the whole stream up front, while the
// heap holds one arrival a program instead of the replay's future.
func (m *Machine) armArrivals(p *Program, js []openJob) {
	if len(js) == 0 {
		return
	}
	first := m.seq + 1
	m.seq += int64(len(js))
	next := 0
	var arrive func()
	arrive = func() {
		j := &js[next]
		next++
		if next < len(js) {
			m.armSeq(js[next].AtUS, first+int64(next), event{kind: evFn, fn: arrive})
		}
		m.deliver(p, j)
	}
	m.armSeq(js[0].AtUS, first, event{kind: evFn, fn: arrive})
}

// deliver offers j to p at the machine's clock and resolves a refusal —
// the one path every arrival takes, a tenant's own and a spilled one.
func (m *Machine) deliver(p *Program, j *openJob) {
	if v := m.offer(p, j); v != admit.Admitted {
		m.refuse(p, j, v)
	}
}

// refuse resolves a job refused with v: a verdict admit.Verdict.Spillable
// allows on goes to the spill hook first, and is not terminal if the hook
// took the job elsewhere.
func (m *Machine) refuse(p *Program, j *openJob, v admit.Verdict) {
	if m.spill != nil && v.Spillable() && m.spill(p, j, v) {
		return
	}
	st := JobRejected // the outcome log keeps queue-full and overload together
	switch v {
	case admit.EarlyReject:
		st = JobEarlyReject
	case admit.Shed:
		st = JobShed
	}
	m.jobDone(p, j, st)
}

// armAdmission builds the machine's front door: one WFQ flow per program
// and the fixed limits every offer is decided under. A nil adm is the
// zero value; queueCap ≤ 0 defaults to 16, dwsd's default depth. The flow
// weights are Config.Weights, the ones the arbiter reads.
func (m *Machine) armAdmission(queueCap int, adm *AdmissionOpts) {
	if adm == nil {
		adm = &AdmissionOpts{}
	}
	if queueCap <= 0 {
		queueCap = 16
	}
	m.admLimits = admit.Limits{Depth: queueCap, GlobalCap: adm.GlobalCap, EarlyReject: adm.EarlyReject}
	m.adm = wfq.New[*openJob]()
	for _, p := range m.progs {
		m.adm.AddFlow(p.idx, m.weightOf(p))
	}
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
	if d.Verdict != admit.Admitted {
		m.emit(trace.Event{Kind: trace.Job, Prog: p.id, Core: -1, Job: j.idx,
			Verdict: d.Verdict.String(), PredictedUS: d.Predicted, BudgetUS: budget})
	}
	if d.DidShed {
		victim := m.progs[d.VictimFlow]
		m.emit(trace.Event{Kind: trace.Job, Prog: p.id, Core: -1, Job: d.Victim.idx,
			Verdict: admit.Shed.String(), Victim: victim.id})
		m.refuse(victim, d.Victim, admit.Shed)
	}
	return d.Verdict
}

// startJob begins executing j (skipping over queued jobs whose deadline
// already expired — the server's runner does the same at dequeue). The
// root task is pushed onto w's deque; sleeper policies re-take their home
// share, and a GO push wakes a parked worker, so someone always comes for
// it.
func (m *Machine) startJob(p *Program, j *openJob, w *Worker) {
	for j.DeadlineUS > 0 && m.now > j.AtUS+j.DeadlineUS {
		m.emit(trace.Event{Kind: trace.Job, Prog: p.id, Core: -1, Job: j.idx,
			Verdict: "expired", WaitUS: m.now - j.AtUS})
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
	m.emit(trace.Event{Kind: trace.Job, Prog: p.id, Core: -1, Job: j.idx,
		Verdict: "start", WaitUS: m.now - j.AtUS})
	m.regrab(p)
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
// job of the replay resolves.
func (m *Machine) jobDone(p *Program, j *openJob, st JobStatus) {
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
	if *m.outstanding--; *m.outstanding == 0 {
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
