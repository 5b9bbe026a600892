// Package trace is the scheduling-event type both substrates emit: the
// live runtime (internal/rt) and the discrete-event simulator
// (internal/sim) report every DWS protocol transition as an Event to an
// Observer, and internal/schedcheck checks either stream against the same
// invariants. An Event marshals to one JSON object, so a stream is JSONL.
package trace

import "errors"

// Kind classifies a scheduling transition. It marshals as its name.
type Kind int

// Event kinds, mirroring the DWS protocol vocabulary (§3.1–§3.3).
const (
	// Sleep: a worker went to sleep. Release says whether it was the
	// voluntary T_SLEEP sleep (core slot released) or an eviction sleep.
	Sleep Kind = iota
	// Wake: a sleeping worker was transitioned to active.
	Wake
	// Claim: the program claimed a free core in the allocation table.
	Claim
	// Reclaim: the program reclaimed a home core from Victim. Epoch is
	// the entitlement epoch the reclaimer's home block derived from (0
	// before any arbitration), so an observer that has not yet seen that
	// batch's Entitle rows can defer judging the reclaim instead of
	// misjudging it against a stale vector — the live arbiter publishes to
	// the table before its decision rows reach the observer, so a
	// coordinator acting on the fresh vector can legitimately emit first.
	Reclaim
	// Evict: a worker observed that its core was reclaimed and stopped.
	Evict
	// Release: the program released a core slot in the table.
	Release
	// CoordTick: one coordinator pass; carries the full §3.3 observation
	// (NB, NA, NW, NF, NR) and what the pass actually did (Woken, Claimed,
	// Reclaimed).
	CoordTick
	// Join: the program (re)joined the table lease; Epoch is the new
	// generation.
	Join
	// Sweep: a sweep found Victim's lease expired; Cores slots were freed.
	// Prog is the sweeping program (0 for the system sweeper).
	Sweep
	// RunStart / RunDone bracket one program run. RunDone carries the
	// cumulative Spawned/Executed task counters, equal at every run
	// boundary if no task was lost.
	RunStart
	RunDone
	// Entitle: the arbiter published a new entitlement for Prog —
	// EOld→ENew cores. One event per program row of the batch (Batch rows
	// total, shrinks emitted before growths); Epoch is the entitlement
	// epoch the batch published.
	Entitle
	// Job: an open-loop job's fate at the front door — admit's refusal
	// (Verdict early_reject, queue_full, overload), or start, expired or
	// shed. On a shed, Prog is the arriving program that displaced job
	// Job of program Victim.
	Job
)

var kindNames = [...]string{
	Sleep: "sleep", Wake: "wake", Claim: "claim", Reclaim: "reclaim",
	Evict: "evict", Release: "release", CoordTick: "coord-tick", Join: "join",
	Sweep: "sweep", RunStart: "run-start", RunDone: "run-done",
	Entitle: "entitle", Job: "job",
}

// String names the kind.
func (k Kind) String() string {
	if k >= 0 && int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "other"
}

// MarshalText encodes the kind as its name.
func (k Kind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText decodes a kind name, refusing names outside the vocabulary.
func (k *Kind) UnmarshalText(b []byte) error {
	for i, n := range kindNames {
		if n == string(b) {
			*k = Kind(i)
			return nil
		}
	}
	return errors.New("trace: unknown event kind " + string(b))
}

// Event is one typed scheduling transition. Only the fields relevant to
// Kind are set; Core is -1 when no single core is involved.
type Event struct {
	// AtUS is the simulated timestamp; the live runtime leaves it 0.
	AtUS int64 `json:"at_us,omitempty"`
	Kind Kind  `json:"kind"`
	// Prog is the acting program's 1-based table ID (0 = the system).
	Prog int32 `json:"prog"`
	// Core is the core/worker slot involved, -1 if not applicable.
	Core int `json:"core"`
	// Victim is the displaced program: the borrower on Reclaim, the dead
	// program on Sweep, the shed job's program on a shed Job.
	Victim int32 `json:"victim,omitempty"`
	// Release distinguishes a voluntary sleep (true) from an eviction
	// sleep on Sleep events.
	Release bool `json:"release,omitempty"`
	// Epoch is the lease generation on Join/Sweep, the entitlement epoch
	// on Entitle, and the entitlement-epoch basis of the home block on
	// Reclaim.
	Epoch int64 `json:"epoch,omitempty"`

	// Coordinator observation (CoordTick): NB queued tasks, NA active
	// workers, NW = NB/NA wake target, NF free cores whose affined worker
	// is sleeping, NR home cores held by a borrower whose affined worker
	// is sleeping.
	NB int `json:"nb,omitempty"`
	NA int `json:"na,omitempty"`
	NW int `json:"nw,omitempty"`
	NF int `json:"nf,omitempty"`
	NR int `json:"nr,omitempty"`
	// Coordinator actions (CoordTick): workers woken, free cores claimed,
	// home cores reclaimed by this pass.
	Woken     int `json:"woken,omitempty"`
	Claimed   int `json:"claimed,omitempty"`
	Reclaimed int `json:"reclaimed,omitempty"`

	// Arbiter decision row (Entitle): Prog's entitlement moved EOld→ENew
	// under the batch's Trigger; Weight/Score/Floor/Activity/Active are
	// the arbitration inputs the decision was computed from (Score is 0
	// while the program is classified idle), and Batch is the number of
	// rows in this publish. Epoch carries the entitlement epoch.
	EOld     int     `json:"eold,omitempty"`
	ENew     int     `json:"enew,omitempty"`
	Floor    int     `json:"floor,omitempty"`
	Batch    int     `json:"batch,omitempty"`
	Weight   float64 `json:"weight,omitempty"`
	Score    float64 `json:"score,omitempty"`
	Activity float64 `json:"activity,omitempty"`
	Active   bool    `json:"active,omitempty"`
	Trigger  string  `json:"trigger,omitempty"`

	// Cores is the number of slots freed by a Sweep.
	Cores int `json:"cores,omitempty"`
	// Spawned/Executed are the program's cumulative task counters on
	// RunDone (root injections count as spawns).
	Spawned  int64 `json:"spawned,omitempty"`
	Executed int64 `json:"executed,omitempty"`
	// LocalSteals/RemoteSteals split the program's cumulative deque steals
	// by whether thief and victim shared a socket (RunDone). Under a flat
	// topology RemoteSteals is always 0.
	LocalSteals  int64 `json:"local_steals,omitempty"`
	RemoteSteals int64 `json:"remote_steals,omitempty"`

	// Open-loop job outcome (Job): the job's per-program index, its
	// Verdict, the time it waited queued (start, expired), and on a
	// refusal admit's predicted queue wait against the deadline budget
	// left.
	Job         int    `json:"job,omitempty"`
	Verdict     string `json:"verdict,omitempty"`
	WaitUS      int64  `json:"wait_us,omitempty"`
	PredictedUS int64  `json:"predicted_us,omitempty"`
	BudgetUS    int64  `json:"budget_us,omitempty"`
}

// Observer receives every scheduling transition of a system's programs.
// The live runtime calls it synchronously from worker and coordinator
// goroutines, so an implementation must be fast, concurrency-safe and must
// not call back into the runtime. The invariant checker in
// internal/schedcheck is the canonical implementation.
type Observer func(Event)
