package server

import (
	"context"
	"math"
	"sync/atomic"
	"time"

	"dws/internal/admit"
	"dws/internal/kernels"
	"dws/internal/rt"
)

// job is one admitted request travelling from the HTTP handler through
// the WFQ admission queue to whoever serves it: the handler itself when
// the tenant was idle (inline), else the tenant's runner goroutine.
type job struct {
	id       uint64
	req      JobRequest
	spec     kernels.Spec
	size     float64
	enqueued time.Time
	// deadline is when the job stops being worth starting; client is the
	// request's own context, cancelled when nobody waits for the answer
	// any more.
	deadline time.Time
	client   context.Context
	tn       *tenant

	// retry is the Retry-After hint attached when the job is resolved as
	// shed (removed from the queue to admit better-placed work).
	retry time.Duration

	// inline is set by a submitter that can serve the job itself. After
	// admission.submit it stays set only if the job was popped the moment
	// it was admitted, for an idle tenant: the submitter then serves it.
	inline bool

	// res is written by whoever resolves the job (runner, inline
	// handler or shedder) before done is closed.
	res  JobResult
	done chan struct{}
}

// tenant is one co-running program plus its WFQ admission flow. Its
// program runs one job at a time: an inline job on the handler that
// submitted it, or backlog on the tenant's runner goroutine.
type tenant struct {
	name string
	srv  *Server
	prog *rt.Program

	// flow is the tenant's WFQ flow ID; depth bounds its backlog.
	flow  int
	depth int

	// closed stops admission and tells the runner to exit once the flow
	// is drained and the tenant idle. busy is true while a handler or the
	// runner serves one of the tenant's jobs. Both guarded by srv.adm.mu.
	closed bool
	busy   bool
	// wakeup is the runner's one-slot wake: a token left while the runner
	// is not waiting is taken on its next wait, so no wake is lost.
	wakeup chan struct{}

	// evicted is set (before closed) when the program's lease expired:
	// remaining queued jobs are failed fast instead of run.
	evicted atomic.Bool

	// inFlight is true while one of the tenant's jobs runs — the "+1 in
	// service" term of the early-rejection wait prediction.
	inFlight atomic.Bool

	jobsServed    atomic.Int64
	shed          atomic.Int64
	earlyRejected atomic.Int64
	// runEWMANanos tracks an exponentially weighted moving average of run
	// time — the WFQ service cost, the early-rejection wait predictor,
	// and the Retry-After hint all derive from it.
	runEWMANanos atomic.Int64
	// sizeEWMABits (float64 bits) tracks the EWMA of declared job sizes
	// over the same completed runs, so admission can price a job's WFQ
	// cost as runEWMA × size/sizeEWMA: run time per unit size times the
	// size actually declared. Workloads whose sizes never vary keep the
	// ratio exactly 1 and their tags bit-identical to size-blind costing.
	sizeEWMABits atomic.Uint64

	exited chan struct{} // closed when the runner has drained and stopped
}

func newTenant(s *Server, name string, prog *rt.Program) *tenant {
	weight, _ := prog.QoS()
	t := &tenant{
		name:   name,
		srv:    s,
		prog:   prog,
		flow:   s.adm.register(weight),
		depth:  s.cfg.QueueDepth,
		wakeup: make(chan struct{}, 1),
		exited: make(chan struct{}),
	}
	go t.run()
	return t
}

// result is the terminal record of j: served, or resolved without running
// (run = 0, no counters) when it expired, was canceled or evicted, or shed.
func (j *job) result(status string, queueWait, run time.Duration, st Stats) JobResult {
	sys := j.tn.srv.sys
	return JobResult{
		ID: j.id, Tenant: j.tn.name, Kernel: j.spec.Name,
		Policy: sys.Policy().String(), Cores: sys.Cores(), Size: j.size,
		Status:  status,
		QueueMS: ms(queueWait), RunMS: ms(run), TotalMS: ms(queueWait + run),
		Stats: st,
	}
}

// runnerPopped, when a test sets it, is handed each job the runner pops.
var runnerPopped func(j *job)

// run drains the tenant's backlog until it is closed (tenant deletion,
// server drain, or lease-expiry eviction), then closes the program.
// Queued jobs admitted before the close are still served — graceful
// drain — unless the tenant was evicted, in which case a wedged program
// cannot be trusted with them and they are failed fast.
func (t *tenant) run() {
	for j, ok := t.srv.adm.popWait(t, false); ok; j, ok = t.srv.adm.popWait(t, true) {
		if runnerPopped != nil {
			runnerPopped(j)
		}
		t.dispatch(j)
	}
	t.srv.adm.unregister(t.flow)
	t.prog.Close()
	close(t.exited)
}

// wake leaves the runner a wake token unless one is already waiting.
func (t *tenant) wake() {
	select {
	case t.wakeup <- struct{}{}:
	default:
	}
}

// dispatch resolves a job popped from the tenant's flow: served, or
// failed fast if the tenant was evicted.
func (t *tenant) dispatch(j *job) {
	t.srv.mAdmissionWait.With(t.name).Observe(time.Since(j.enqueued).Seconds())
	if t.evicted.Load() {
		t.failFast(j)
		return
	}
	t.serve(j)
}

// failFast resolves a queued job without running it (evicted tenant).
func (t *tenant) failFast(j *job) {
	j.res = j.result(StatusCanceled, time.Since(j.enqueued), 0, Stats{})
	t.srv.mJobs.With(t.name, j.spec.Name, StatusCanceled).Inc()
	close(j.done)
}

// serve executes one job on the tenant's program and records the result.
func (t *tenant) serve(j *job) {
	start := time.Now()
	queueWait := start.Sub(j.enqueued)
	s := t.srv
	// Feed the observed queue wait into the program's demand signal: the
	// QoS arbiter compares it against the tenant's SLO (if declared) when
	// computing entitlements.
	t.prog.ReportQueueWait(queueWait)
	if expired := !start.Before(j.deadline); expired || j.client.Err() != nil {
		// The deadline passed (or the client went away) while the job was
		// queued: skip it — the work would be wasted. With early rejection
		// enabled this is the residual race (a run slower than the EWMA
		// predicted); with it disabled, the only deadline backstop.
		status := StatusCanceled
		if expired {
			status = StatusExpired
		}
		j.res = j.result(status, queueWait, 0, Stats{})
		s.mJobs.With(t.name, j.spec.Name, status).Inc()
		s.mQueueWait.With(t.name).Observe(queueWait.Seconds())
		close(j.done)
		return
	}

	before := t.prog.Stats()
	t.inFlight.Store(true)
	err := t.prog.Run(j.spec.NewTask(j.size))
	t.inFlight.Store(false)
	runDur := time.Since(start)
	status := StatusOK
	if err != nil {
		// Only ErrClosed can surface here, and only on shutdown races.
		status = StatusCanceled
	}
	j.res = j.result(status, queueWait, runDur, t.prog.Stats().Sub(before))
	t.jobsServed.Add(1)
	t.observeRun(runDur, j.size)
	s.mJobs.With(t.name, j.spec.Name, status).Inc()
	s.mQueueWait.With(t.name).Observe(queueWait.Seconds())
	s.mRunTime.With(j.spec.Name).Observe(runDur.Seconds())
	s.mLatency.With(t.name, j.spec.Name).Observe((queueWait + runDur).Seconds())
	close(j.done)
}

// observeRun folds one run duration and its declared size into the
// tenant EWMAs (α = 1/4) and the server-wide fallback EWMA that costs
// history-less tenants.
func (t *tenant) observeRun(d time.Duration, size float64) {
	t.srv.adm.observeCost(d)
	t.runEWMANanos.Store(admit.Fold(t.runEWMANanos.Load(), int64(d)))
	t.foldSizeEWMA(size)
}

// sizeEWMA returns the tenant's declared-size EWMA (0 = no history).
func (t *tenant) sizeEWMA() float64 {
	return math.Float64frombits(t.sizeEWMABits.Load())
}

// foldSizeEWMA folds one declared size into the size EWMA. A constant
// size is a fixed point of the fold, which is what keeps equal-size
// workloads' admission costs bit-identical to the size-blind path.
func (t *tenant) foldSizeEWMA(size float64) {
	if size <= 0 {
		return
	}
	t.sizeEWMABits.Store(math.Float64bits(admit.Fold(t.sizeEWMA(), size)))
}

// queueLen reports the tenant's current admission backlog.
func (t *tenant) queueLen() int { return t.srv.adm.lenOf(t.flow) }

// retryAfter is the tenant's current Retry-After hint at its current
// backlog.
func (t *tenant) retryAfter() time.Duration {
	return retryAfterHint(time.Duration(t.runEWMANanos.Load()), t.queueLen())
}

// info snapshots the tenant for GET /v1/tenants.
func (t *tenant) info() TenantInfo {
	held := -1
	if occ := t.srv.sys.Occupants(); occ != nil {
		held = 0
		for _, id := range occ {
			if int(id) == t.prog.Slot()+1 {
				held++
			}
		}
	}
	entitled := -1
	if t.srv.sys.Arbiter() != nil && t.srv.sys.EntitlementEpoch() > 0 {
		entitled = int(t.srv.sys.Entitlements()[t.prog.Slot()])
	}
	weight, slo := t.prog.QoS()
	return TenantInfo{
		Name:          t.name,
		QueueDepth:    t.queueLen(),
		QueueCap:      t.depth,
		JobsServed:    t.jobsServed.Load(),
		Shed:          t.shed.Load(),
		EarlyRejected: t.earlyRejected.Load(),
		CoresHeld:     held,
		Weight:        weight,
		SLOMs:         int64(slo / time.Millisecond),
		EntitledCores: entitled,
		Stats:         t.prog.Stats(),
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
