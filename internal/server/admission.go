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
// A job admitted to an idle tenant (no serve in progress, and the job
// alone in its flow) is popped at once and served by the handler that
// submitted it: a queued job that waited for nothing. Only backlog goes
// to the tenant's runner goroutine, which blocks in popWait on its own
// wake channel, so an admission wakes at most the one runner it feeds.
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
// caller must resolve (StatusShed). An admitted job offered inline (its
// submitter can serve it) that finds its tenant idle is popped at once:
// the tenant is busy, j.inline stays set, and the caller serves the job
// (tenant.dispatch) and then calls release. Any other admitted job has
// j.inline cleared and waits for the runner. On refusals retry is the
// Retry-After hint.
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
		j.inline = j.inline && !t.busy && a.q.Len(t.flow) == 1
		switch {
		case j.inline:
			a.q.Pop(t.flow)
			t.busy = true
		case !t.busy:
			t.wake()
			// A busy tenant needs no wake: whoever holds it looks at the
			// flow again when it lets go.
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

// release ends an inline job's serve: the tenant is idle again, and its
// runner is woken only if backlog queued behind the serve or the tenant
// was closed meanwhile.
func (a *admission) release(t *tenant) {
	a.mu.Lock()
	t.busy = false
	wake := t.closed || a.q.Len(t.flow) > 0
	a.mu.Unlock()
	if wake {
		t.wake()
	}
}

// popWait is the runner's loop step. It first ends the runner's previous
// serve (done), then blocks until the tenant is idle with a queued job,
// which it pops and marks busy, or is closed, drained and idle, when it
// returns false and the runner exits.
func (a *admission) popWait(t *tenant, done bool) (*job, bool) {
	a.mu.Lock()
	if done {
		t.busy = false
	}
	for {
		if !t.busy {
			if j, ok := a.q.Pop(t.flow); ok {
				t.busy = true
				a.mu.Unlock()
				return j, true
			}
			if t.closed {
				a.mu.Unlock()
				return nil, false
			}
		}
		a.mu.Unlock()
		<-t.wakeup
		a.mu.Lock()
	}
}

// closeTenant stops admission for the tenant and wakes its runner; the
// runner drains remaining backlog (serving it, or failing fast if the
// tenant was evicted) and waits out an inline serve before exiting.
func (a *admission) closeTenant(t *tenant) {
	a.mu.Lock()
	t.closed = true
	a.mu.Unlock()
	t.wake()
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
