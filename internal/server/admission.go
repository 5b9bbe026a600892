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
// depth and a global backlog cap. Tenants' runner goroutines block in
// popWait on the shared condition variable; submissions enqueue under
// the same mutex, so WFQ tags, per-tenant FIFO, and the closed flag are
// all consistent without per-tenant channels.
//
// Lock order: Server.mu may be held when taking admission.mu (tenant
// creation, weight updates, teardown) — never the reverse.
type admission struct {
	mu   sync.Mutex
	cond *sync.Cond
	q    *wfq.Queue[*job]

	nextFlow    int
	globalCap   int  // 0 = no global cap (per-tenant depths still apply)
	earlyReject bool // deadline-aware early rejection at submit

	// fallbackNanos is a server-wide run-time EWMA folded from every
	// tenant's completed runs: what admit.Charge prices a tenant with no
	// history of its own at.
	fallbackNanos atomic.Int64
}

func newAdmission(globalCap int, earlyReject bool) *admission {
	a := &admission{
		q:           wfq.New[*job](),
		globalCap:   globalCap,
		earlyReject: earlyReject,
	}
	a.cond = sync.NewCond(&a.mu)
	return a
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

// unregister drops a tenant's flow, returning any stranded backlog (in
// normal teardown the runner has already drained it).
func (a *admission) unregister(flow int) []*job {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.q.RemoveFlow(flow)
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
// caller must resolve (StatusShed). On refusals retry is the Retry-After
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
		a.cond.Broadcast()
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

// popWait blocks until the tenant has a queued job or has been closed;
// it returns false only on close-and-drained, at which point the runner
// exits.
func (a *admission) popWait(t *tenant) (*job, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for {
		if j, ok := a.q.Pop(t.flow); ok {
			return j, true
		}
		if t.closed {
			return nil, false
		}
		a.cond.Wait()
	}
}

// closeTenant stops admission for the tenant and wakes its runner; the
// runner drains remaining backlog (serving it, or failing fast if the
// tenant was evicted) before exiting.
func (a *admission) closeTenant(t *tenant) {
	a.mu.Lock()
	t.closed = true
	a.cond.Broadcast()
	a.mu.Unlock()
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
