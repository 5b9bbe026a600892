// Package admit is the front-door admission verdict, written once: the
// dwsd server (wall clock, nanoseconds, under its admission mutex) and the
// simulator's RunOpen and RunFederation (virtual clock, microseconds,
// single-threaded) both call Decide, so the simulator predicts the server
// by running the server's own rule. The package is pure and clock-free in
// the mould of internal/arbiter and internal/wfq: times are integer ticks
// of whatever clock the caller keeps, and no lock is taken here.
package admit

import (
	"fmt"

	"dws/internal/wfq"
)

// Verdict is the outcome of one admission decision. The refusals' String
// values are the X-DWS-Reject-Reason header and dws_jobs_rejected_total
// {reason} label values.
type Verdict int

const (
	Admitted    Verdict = iota // enqueued on the flow
	EarlyReject                // predicted queue wait already exceeds the deadline budget
	QueueFull                  // the flow's own bounded queue is full
	Overload                   // global cap hit and the arrival is the worst-placed work
	Shed                       // a queued job's fate: removed to admit better-placed work
)

func (v Verdict) String() string {
	switch v {
	case Admitted:
		return "admitted"
	case EarlyReject:
		return "early_reject"
	case QueueFull:
		return "queue_full"
	case Overload:
		return "overload"
	case Shed:
		return "shed"
	}
	return fmt.Sprintf("Verdict(%d)", int(v))
}

// Spillable reports whether a federation front tier should offer a job
// refused with v to a sibling shard. EarlyReject is terminal: it priced
// the tenant's own backlog against the job's deadline, and a sibling
// hosting the same tenant's spilled traffic would predict the same miss.
func (v Verdict) Spillable() bool {
	return v == QueueFull || v == Overload || v == Shed
}

// SpillableReason is Spillable over the wire form: whether reason names
// a refusal worth a sibling. Reasons outside the vocabulary are not.
func SpillableReason(reason string) bool {
	for v := EarlyReject; v <= Shed; v++ {
		if v.String() == reason {
			return v.Spillable()
		}
	}
	return false
}

// Limits are a front door's fixed settings.
type Limits struct {
	Depth       int  // per-flow backlog bound
	GlobalCap   int  // total backlog bound across flows; ≤ 0 means none
	EarlyReject bool // deadline-aware early rejection
}

// Arrival is what one decision needs to know about the arriving job, in
// ticks of the caller's clock.
type Arrival struct {
	EWMA        int64   // the flow's service-time EWMA; 0 means no history
	InService   bool    // a job of this flow is executing (it is ahead too)
	HasDeadline bool    // false: never early-rejected, whatever Budget holds
	Budget      int64   // deadline budget left; ≤ 0 means already exhausted
	Cost        float64 // WFQ service cost (see Charge)
}

// Decision is Decide's answer.
type Decision[T any] struct {
	Verdict   Verdict
	Backlog   int   // the flow's queued jobs before this arrival
	Predicted int64 // EWMA × jobs ahead: the wait the flow's history predicts
	// DidShed reports that admitting the arrival displaced Victim from
	// VictimFlow's tail; the caller resolves it (Shed).
	DidShed    bool
	VictimFlow int
	Victim     T
}

// Decide runs the admission rules for one arrival, in order:
//
//  1. early rejection — with history (EWMA > 0) and a deadline, a job
//     whose predicted wait strictly exceeds its remaining budget is
//     refused now instead of expiring silently in the queue; a borderline
//     job (predicted == budget) is admitted;
//  2. the flow's own bounded depth;
//  3. the global cap — at the cap the arrival's would-be finish tag is
//     compared with the worst queued tail: if other work is placed
//     strictly worse in virtual time it is shed to make room
//     (shed-from-bronze before reject-gold), otherwise the arrival itself
//     is refused (this covers a same-flow arrival: a flow's own tags are
//     monotone).
//
// On Admitted the job has been enqueued on flow at a.Cost.
func Decide[T any](q *wfq.Queue[T], flow int, job T, lim Limits, a Arrival) Decision[T] {
	d := Decision[T]{Backlog: q.Len(flow)}
	ahead := d.Backlog
	if a.InService {
		ahead++
	}
	d.Predicted = int64(ahead) * a.EWMA
	switch {
	case lim.EarlyReject && a.EWMA > 0 && a.HasDeadline && d.Predicted > a.Budget:
		d.Verdict = EarlyReject
		return d
	case d.Backlog >= lim.Depth:
		d.Verdict = QueueFull
		return d
	}
	if lim.GlobalCap > 0 && q.Total() >= lim.GlobalCap {
		fNew := q.TagPreview(flow, a.Cost)
		if _, fMax, ok := q.PeekMaxTail(); !ok || fMax <= fNew {
			d.Verdict = Overload
			return d
		}
		d.VictimFlow, d.Victim, d.DidShed = q.ShedMaxTail()
	}
	q.Enqueue(flow, job, a.Cost)
	return d
}

// Charge is the service time a flow's next job is priced at: its own
// EWMA, else the door-wide fallback (0 on a fully cold door, which wfq
// maps to DefaultCost). Without the fallback a cold flow arriving at a
// saturated door carries a unit-constant tag that can dwarf every warm
// flow's tail, and is refused as overload forever — refused jobs never
// run and never warm its EWMA.
func Charge(own, fallback int64) int64 {
	if own == 0 {
		return fallback
	}
	return own
}

// Fold folds one observation into an EWMA with α = 1/4; a zero EWMA (no
// history) takes the observation whole. A constant input is a fixed point.
func Fold[N ~int64 | ~float64](prev, x N) N {
	if prev == 0 {
		return x
	}
	return prev + (x-prev)/4
}
