package server

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"dws/internal/admit"
	"dws/internal/wfq"
)

// RejectReasonHeader carries the admission verdict on every 429 (and on
// shed jobs resolved mid-queue), so load generators can tell the four
// rejection modes apart without parsing bodies.
const RejectReasonHeader = "X-DWS-Reject-Reason"

// admitClosed is submit's one answer that is not an admission decision:
// the tenant is mid-teardown and the caller should 503. The reject
// reasons on the wire (mRejected label and RejectReasonHeader values)
// are the admit.Verdict strings.
const admitClosed admit.Verdict = -1

// admission is the server's WFQ front door: one virtual-time weighted
// fair queue across every tenant, guarding both the per-tenant bounded
// depth and a global backlog cap. Submissions enqueue under its mutex, so
// WFQ tags, per-tenant FIFO, and each tenant's closed and busy flags are
// all consistent under one lock.
//
// A tenant serves one job at a time, always on the handler that admitted
// it. A job admitted to an idle tenant (no serve in progress) is popped
// at once; any other waits for its turn, which whoever ends the tenant's
// serve (release) hands to the next job popped from the flow. So an idle
// tenant's flow is empty, and who holds a turn is decided under this mutex.
//
// Lock order: Server.mu may be held when taking admission.mu (tenant
// creation, weight updates, teardown) — never the reverse.
type admission struct {
	mu sync.Mutex
	q  *wfq.Queue[*job]

	nextFlow    int
	globalCap   int  // 0 = no global cap (per-tenant depths still apply)
	earlyReject bool // deadline-aware early rejection at submit

	// fallbackNanos is a server-wide run-time EWMA folded from every
	// tenant's completed runs: what admit.Charge prices a tenant with no
	// history of its own at.
	fallbackNanos atomic.Int64
}

func newAdmission(globalCap int, earlyReject bool) *admission {
	return &admission{
		q:           wfq.New[*job](),
		globalCap:   globalCap,
		earlyReject: earlyReject,
	}
}

// register allocates a WFQ flow for a new tenant.
func (a *admission) register(weight float64) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	id := a.nextFlow
	a.nextFlow++
	a.q.AddFlow(id, weight)
	return id
}

// unregister drops a finished tenant's (empty) flow.
func (a *admission) unregister(flow int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.q.RemoveFlow(flow)
}

// setWeight re-weights a tenant's flow; already queued jobs keep their
// tags (wfq semantics), so a mid-backlog declaration cannot jump the
// queue.
func (a *admission) setWeight(flow int, weight float64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.q.SetWeight(flow, weight)
}

// lenOf reports a tenant's current backlog.
func (a *admission) lenOf(flow int) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.q.Len(flow)
}

// total reports the global backlog.
func (a *admission) total() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.q.Total()
}

// submit runs the admission decision (admit.Decide, in nanosecond ticks)
// for one job under the admission mutex.
//
// On admit.Admitted the returned victim, if non-nil, is the shed job the
// caller must resolve (resolveShed). An admitted job that finds its tenant
// idle is popped at once and the tenant marked busy: the caller serves it
// (tenant.serve) and then calls release. Any other admitted job gets a
// turn channel and waits for it. On refusals retry is the Retry-After
// hint.
func (a *admission) submit(t *tenant, j *job, deadline time.Duration) (verdict admit.Verdict, retry time.Duration, victim *job) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if t.closed {
		return admitClosed, 0, nil
	}
	ewma := time.Duration(t.runEWMANanos.Load())
	d := admit.Decide(a.q, t.flow, j,
		admit.Limits{Depth: t.depth, GlobalCap: a.globalCap, EarlyReject: a.earlyReject},
		admit.Arrival{
			EWMA:        int64(ewma),
			InService:   t.inFlight.Load(),
			HasDeadline: true, // the server defaults a deadline onto every job
			Budget:      int64(deadline),
			Cost:        a.jobCost(t, j, ewma),
		})
	switch d.Verdict {
	case admit.Admitted:
		if d.Victim != nil {
			d.Victim.dequeued = true
		}
		if !t.busy && a.q.Len(t.flow) == 1 {
			a.q.Pop(t.flow)
			j.dequeued = true
			t.busy = true
		} else {
			j.turn = make(chan struct{})
		}
	case admit.EarlyReject:
		// Honest hint: after predicted−deadline the backlog ahead has
		// drained enough that an identical job would fit its deadline.
		retry = ceilSeconds(time.Duration(d.Predicted) - deadline)
	default:
		retry = retryAfterHint(ewma, d.Backlog)
	}
	return d.Verdict, retry, d.Victim
}

// jobCost prices one job for the WFQ: the tenant's run-time EWMA scaled
// by the job's declared size relative to the tenant's size EWMA — run
// time per unit size times the size actually submitted. A tenant whose
// sizes never vary has size/sizeEWMA exactly 1 (the EWMA of a constant is
// that constant), so its tags are bit-identical to size-blind costing;
// a tenant interleaving big and small jobs pays proportionally, which is
// what keeps a mixed-size flow from billing its double-size jobs at the
// averaged rate and squeezing out equal-weight single-size neighbors.
func (a *admission) jobCost(t *tenant, j *job, ewma time.Duration) float64 {
	cost := time.Duration(admit.Charge(int64(ewma), a.fallbackNanos.Load())).Seconds()
	if szAvg := t.sizeEWMA(); szAvg > 0 && j.size > 0 {
		cost *= j.size / szAvg
	}
	return cost
}

// observeCost folds one completed run into the server-wide fallback
// EWMA (α = 1/4) used to cost tenants with no history of their own.
func (a *admission) observeCost(d time.Duration) {
	a.fallbackNanos.Store(admit.Fold(a.fallbackNanos.Load(), int64(d)))
}

// release ends the tenant's serve: it pops the next job and hands that
// job's handler the turn. A popped job whose handler has left is resolved
// here, without running, and the next one popped. With the flow empty
// the tenant is idle, and if it was closed meanwhile it is finished.
func (a *admission) release(t *tenant) {
	a.mu.Lock()
	for {
		j, ok := a.q.Pop(t.flow)
		if !ok {
			break
		}
		j.dequeued = true
		if !j.left {
			a.mu.Unlock()
			close(j.turn)
			return
		}
		a.mu.Unlock()
		t.serve(j)
		a.mu.Lock()
	}
	t.busy = false
	closed := t.closed
	a.mu.Unlock()
	if closed {
		t.finish()
	}
}

// leave is a waiting handler's exit when its deadline passes or its
// client goes. If the job is still queued it is marked left, reported
// true, and stays queued until whoever pops or sheds it resolves it, so
// no flow frontier moves. Otherwise its turn was handed over or it was
// shed, and the handler must take that instead.
func (a *admission) leave(j *job) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if j.dequeued {
		return false
	}
	j.left = true
	return true
}

// closeTenant stops admission for the tenant; its queued jobs still take
// their turns (failed fast if it was evicted). It reports whether the
// tenant is idle, when the caller must finish it; otherwise the release
// that leaves it idle does.
func (a *admission) closeTenant(t *tenant) (idle bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	t.closed = true
	return !t.busy
}

// retryAfterHint estimates how long until a backlogged tenant has room:
// roughly half a queue's worth of average runs, at least one second (the
// Retry-After header has one-second resolution).
func retryAfterHint(ewma time.Duration, backlog int) time.Duration {
	est := time.Duration(backlog/2+1) * ewma
	if est < time.Second {
		return time.Second
	}
	return ceilSeconds(est)
}

// ceilSeconds rounds up to whole seconds with a one-second floor.
func ceilSeconds(d time.Duration) time.Duration {
	if d < time.Second {
		return time.Second
	}
	return time.Duration(math.Ceil(d.Seconds())) * time.Second
}
