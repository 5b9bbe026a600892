// Package arbiter implements QoS-weighted elastic core arbitration: the
// layer between the coordinators and the core allocation table that
// generalises the paper's fixed k/m home shares (§3.1) to weighted,
// demand-aware entitlements.
//
// Each program declares a weight and an optional latency SLO. Every
// arbitration period the arbiter folds the programs' measured demand —
// the coordinator's N_b/N_a surplus, worker activity, and (under dwsd)
// observed queue wait — into per-program EWMAs, classifies programs as
// active or idle, scores the active ones by weight with an SLO-pressure
// boost, apportions the k cores by largest remainder over the scores
// (subject to weighted floors so nobody is starved), and publishes the
// resulting entitlement vector into the core table's v3 entitlement area
// (coretable.SetEntitlements). Coordinators then derive their elastic
// home block from the table instead of the static HomeCores split, so
// reclaim stays home-only (§3.3 case 2/3) but the home itself grows and
// shrinks with demand and QoS.
//
// Hysteresis: a changed proposal must repeat for hysteresis (2)
// consecutive ticks before it is published, so transient demand blips do
// not thrash cores between programs. Structural changes — the first tick,
// a program joining or leaving — publish immediately.
//
// With equal weights, no SLOs, and every program active, the arbiter
// publishes exactly the static HomeCores block sizes: DWS behaves as in
// the paper, which is what the schedcheck conformance oracle pins.
package arbiter

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dws/internal/coretable"
	"dws/internal/trace"
)

// The arbitration policy's fixed constants.
const (
	// alpha is the EWMA smoothing factor for the demand signals in (0, 1];
	// higher reacts faster.
	alpha = 0.3
	// floorFrac is the fraction of a program's proportional weighted share
	// guaranteed as its floor while active.
	floorFrac = 0.5
	// sloBoostMax caps the score multiplier SLO pressure can apply (a
	// tenant blowing its SLO counts at most double).
	sloBoostMax = 2.0
	// idleBelow is the activity-EWMA threshold under which a program is
	// classified idle and its entitlement redistributed.
	idleBelow = 0.25
	// hysteresis is how many consecutive ticks a changed entitlement
	// proposal must persist before it is published (structural changes
	// bypass it).
	hysteresis = 2
)

// Config parameterises an Arbiter; only Cores is required.
type Config struct {
	// Cores is k, the number of cores being arbitrated. Required.
	Cores int
	// FaultIgnoreWeights injects the "ignore weights" coordinator fault for
	// schedcheck: the arbiter reports true scores in its decisions but
	// apportions as if every active program scored equally. Tests only.
	FaultIgnoreWeights bool
}

// Input is one program's demand report for a tick, assembled by the
// caller (rt.System from live coordinators, dwsd adding queue waits, or
// the simulator's model).
type Input struct {
	// PID is the program's table ID in [1, Cores].
	PID int32
	// Weight is the program's QoS weight; values ≤ 0 mean 1.
	Weight float64
	// SLO is the program's latency target (0 = none).
	SLO time.Duration
	// NB is the program's queued-task count (the coordinator's N_b).
	NB int
	// NA is the program's active-worker count (the coordinator's N_a).
	NA int
	// QueueWait is the worst job queue wait observed since the last tick
	// (dwsd feeds this; 0 when unknown or idle).
	QueueWait time.Duration
}

// Triggers classify why an entitlement batch was published.
const (
	TriggerInit   = "init"   // first publish
	TriggerJoin   = "join"   // a program appeared
	TriggerLeave  = "leave"  // a program disappeared
	TriggerWeight = "weight" // a weight changed
	TriggerSLO    = "slo"    // SLO pressure shifted the scores
	TriggerDemand = "demand" // demand/activity shifted the scores
)

// Decision records one program's row of a published entitlement batch.
// Every program with a non-zero old or new entitlement (or present in the
// inputs) gets a row, so a batch carries the full vector: schedcheck
// recomputes Apportion(Cores, scores, floors) from the rows and demands
// an exact match.
type Decision struct {
	PID      int32
	Old, New int32
	Weight   float64 // declared weight (normalised, ≥ 1e-9)
	Score    float64 // weight × SLO boost while active, 0 while idle
	Floor    int32   // weighted floor used for this batch
	Demand   float64 // EWMA of N_b/max(N_a,1) — the surplus signal
	Activity float64 // EWMA of N_a+N_b — the idleness signal
	Active   bool
	Trigger  string
	Epoch    int64 // entitlement epoch this batch published
	Batch    int   // number of rows in the batch
}

// Report emits a published batch as one trace.Entitle event per row,
// shrinks first, so an observer folding the rows one by one never sees
// the entitlement sum exceed k.
func Report(batch []Decision, emit trace.Observer) {
	for pass := 0; pass < 2; pass++ {
		for _, d := range batch {
			if (d.New < d.Old) != (pass == 0) {
				continue
			}
			emit(trace.Event{
				Kind: trace.Entitle, Prog: d.PID, Core: -1,
				EOld: int(d.Old), ENew: int(d.New), Floor: int(d.Floor),
				Weight: d.Weight, Score: d.Score,
				Demand: d.Demand, Activity: d.Activity, Active: d.Active,
				Trigger: d.Trigger, Epoch: d.Epoch, Batch: d.Batch,
			})
		}
	}
}

type ewma struct {
	v    float64
	seen bool
}

func (e *ewma) add(alpha, x float64) {
	if !e.seen {
		e.v, e.seen = x, true
		return
	}
	e.v = alpha*x + (1-alpha)*e.v
}

type progState struct {
	activity ewma
	surplus  ewma
	qwait    ewma // seconds
	weight   float64
	boost    float64
}

// Arbiter computes and publishes entitlement vectors for one core table.
// Tick is not safe for concurrent use (run it from one loop); Changes and
// Epoch may be read concurrently.
type Arbiter struct {
	cfg   Config
	table *coretable.Table

	mu          sync.Mutex
	state       map[int32]*progState
	ents        []int32 // last published (or initial zero) vector
	epoch       int64
	pending     []int32
	pendingN    int
	ticked      bool
	weightDirty bool // a weight changed since the last publish/stable tick

	changes atomic.Int64
}

// New returns an Arbiter publishing into table. cfg.Cores must equal
// table.K().
func New(cfg Config, table *coretable.Table) *Arbiter {
	if cfg.Cores <= 0 {
		panic(fmt.Sprintf("arbiter: non-positive core count %d", cfg.Cores))
	}
	if table.K() != cfg.Cores {
		panic(fmt.Sprintf("arbiter: config covers %d cores but table has %d", cfg.Cores, table.K()))
	}
	return &Arbiter{
		cfg:   cfg,
		table: table,
		state: make(map[int32]*progState),
		ents:  table.Entitlements(),
		epoch: table.EntitlementEpoch(),
	}
}

// Changes returns the total number of per-program entitlement changes
// published so far (the dws_entitlement_changes_total counter).
func (a *Arbiter) Changes() int64 { return a.changes.Load() }

// Epoch returns the entitlement epoch of the last publish this arbiter
// observed.
func (a *Arbiter) Epoch() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.epoch
}

// Entitlement returns the last published entitlement for pid (0 if none).
func (a *Arbiter) Entitlement(pid int32) int32 {
	a.mu.Lock()
	defer a.mu.Unlock()
	if int(pid) >= 1 && int(pid) <= len(a.ents) {
		return a.ents[pid-1]
	}
	return 0
}

// Tick folds one round of demand reports into the EWMAs, recomputes the
// entitlement vector, and publishes it (subject to hysteresis). It
// returns the published batch's decisions, or nil if nothing was
// published this tick.
func (a *Arbiter) Tick(inputs []Input) []Decision {
	a.mu.Lock()
	defer a.mu.Unlock()
	k := a.cfg.Cores

	structural := ""
	if !a.ticked {
		structural = TriggerInit
	}
	present := make(map[int32]bool, len(inputs))
	for _, in := range inputs {
		if in.PID < 1 || int(in.PID) > k {
			panic(fmt.Sprintf("arbiter: input pid %d out of range [1,%d]", in.PID, k))
		}
		present[in.PID] = true
		st := a.state[in.PID]
		if st == nil {
			st = &progState{}
			a.state[in.PID] = st
			if structural == "" {
				structural = TriggerJoin
			}
		}
		w := in.Weight
		if w <= 0 {
			w = 1
		}
		if st.weight != 0 && st.weight != w {
			a.weightDirty = true
		}
		st.weight = w
		na := in.NA
		if na < 1 {
			na = 1
		}
		st.activity.add(alpha, float64(in.NA+in.NB))
		st.surplus.add(alpha, float64(in.NB)/float64(na))
		st.qwait.add(alpha, in.QueueWait.Seconds())
		st.boost = 0
		if in.SLO > 0 {
			st.boost = st.qwait.v / in.SLO.Seconds()
			if max := sloBoostMax - 1; st.boost > max {
				st.boost = max
			}
		}
	}
	for pid := range a.state {
		if !present[pid] {
			delete(a.state, pid)
			if structural == "" {
				structural = TriggerLeave
			}
		}
	}
	a.ticked = true

	// Classify activity; if every program reads idle (e.g. between runs),
	// treat all as active so nobody's entitlement collapses for no rival.
	weights := make([]float64, k)
	active := make([]bool, k)
	scores := make([]float64, k)
	anyActive := false
	for pid, st := range a.state {
		weights[pid-1] = st.weight
		if st.activity.v >= idleBelow {
			active[pid-1] = true
			anyActive = true
		}
	}
	if !anyActive {
		for pid := range a.state {
			active[pid-1] = true
		}
	}
	for pid, st := range a.state {
		if active[pid-1] {
			scores[pid-1] = st.weight * (1 + st.boost)
		}
	}
	floors := Floors(k, weights, active, floorFrac)

	apportionScores := scores
	if a.cfg.FaultIgnoreWeights {
		apportionScores = make([]float64, k)
		for i := range scores {
			if scores[i] > 0 {
				apportionScores[i] = 1
			}
		}
	}
	proposal := Apportion(k, apportionScores, floors)

	// Hysteresis gate (bypassed by structural triggers).
	publish := structural != ""
	if !publish {
		if vecEqual(proposal, a.ents) {
			a.pending, a.pendingN = nil, 0
			a.weightDirty = false
			return nil
		}
		if a.pending != nil && vecEqual(proposal, a.pending) {
			a.pendingN++
		} else {
			a.pending = proposal
			a.pendingN = 1
		}
		if a.pendingN < hysteresis {
			return nil
		}
		publish = true
	} else if vecEqual(proposal, a.ents) && a.epoch > 0 {
		// Structural tick but nothing moved and we have published before:
		// skip the redundant epoch bump.
		a.pending, a.pendingN = nil, 0
		return nil
	}
	if !publish {
		return nil
	}

	trigger := structural
	if trigger == "" {
		switch {
		case a.weightDirty:
			trigger = TriggerWeight
		case a.sloShifted():
			trigger = TriggerSLO
		default:
			trigger = TriggerDemand
		}
	}

	epoch, ok := a.table.SetEntitlements(proposal, a.epoch)
	if !ok {
		// Another publisher won this epoch (multi-process). Resync and let
		// the next tick recompute against the fresh state.
		a.epoch = a.table.EntitlementEpoch()
		a.ents = a.table.Entitlements()
		a.pending, a.pendingN = nil, 0
		return nil
	}

	old := a.ents
	a.epoch = epoch
	a.ents = proposal
	a.pending, a.pendingN = nil, 0
	a.weightDirty = false

	var decisions []Decision
	nchanged := int64(0)
	for i := 0; i < k; i++ {
		pid := int32(i + 1)
		st := a.state[pid]
		if st == nil && old[i] == 0 && proposal[i] == 0 {
			continue
		}
		d := Decision{
			PID:     pid,
			Old:     old[i],
			New:     proposal[i],
			Floor:   floors[i],
			Score:   scores[i],
			Active:  active[i],
			Trigger: trigger,
			Epoch:   epoch,
		}
		if st != nil {
			d.Weight = st.weight
			d.Demand = st.surplus.v
			d.Activity = st.activity.v
		}
		if old[i] != proposal[i] {
			nchanged++
		}
		decisions = append(decisions, d)
	}
	for i := range decisions {
		decisions[i].Batch = len(decisions)
	}
	a.changes.Add(nchanged)
	return decisions
}

// sloShifted reports whether any program currently carries SLO pressure —
// used only to classify a publish's trigger, after weight changes.
func (a *Arbiter) sloShifted() bool {
	for _, st := range a.state {
		if st.boost > 0.01 {
			return true
		}
	}
	return false
}

func vecEqual(x, y []int32) bool {
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if x[i] != y[i] {
			return false
		}
	}
	return true
}
