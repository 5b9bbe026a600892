// Package schedcheck is the correctness-tooling layer over the two DWS
// substrates: an invariant checker that watches the trace.Event stream
// of either the live runtime (internal/rt) or the discrete-event simulator
// (internal/sim), and a conformance oracle that replays identical
// workloads through both — each watched by a Checker — and diffs the
// outcomes.
//
// The checker asserts the protocol rules the paper states but a busy
// scheduler can silently break:
//
//   - sleep/wake alternation: per worker slot, sleeps and wakes strictly
//     alternate, so at most one active worker ever exists per (program,
//     core) slot;
//   - task conservation: at every run boundary the program has executed
//     exactly as many tasks as were spawned — no task is lost or run twice
//     between deque, steal and sleep transitions — and neither counter
//     ever regresses;
//   - the §3.3 three-case rule: every coordinator pass reports its
//     observation (N_b, N_a, N_f, N_r) and its actions, which must obey
//     N_w = N_b/N_a and the free-first/reclaim-second case order;
//   - lease epochs are strictly monotone per program ID;
//   - reclaims only ever target the reclaimer's own home cores and a
//     victim distinct from the reclaimer;
//   - entitlement batches (trace.Entitle, emitted when the QoS arbiter is
//     enabled): the modeled entitlement sum never exceeds k at any event
//     prefix (the runtime emits shrinks before growths), batch epochs are
//     strictly monotone, no active program is published below its
//     weighted floor, and the published vector must equal
//     arbiter.Apportion recomputed from the batch's reported scores and
//     floors — the assertion that catches an arbiter which ignores
//     weights.
//
// Once an entitlement batch has been observed, the home block is elastic:
// reclaim-home-only accepts a reclaim of any core in the reclaimer's
// current or previous entitled block (a coordinator may act on a vector
// published an instant before its rows reach the checker; reclaims that
// are outside both are held until the next batch resolves them). Reclaims
// stamped (the Epoch of a trace.Reclaim) with an entitlement epoch the checker has
// not seen rows for yet are held unjudged until that batch arrives —
// without the stamp, a reclaim racing ahead of the *first* batch would be
// judged against the static homes, which can wrongly legalise a
// cross-block reclaim the published vector forbids. The
// three-case wake-count assertions need no change — N_f and N_r are
// self-reported per tick, measured by the runtime against the elastic
// home the entitlement checks pin.
//
// With a multi-socket Options.SocketSize the elastic home is the placed
// block (arbiter.Place recomputed from the published size vector, the
// same derivation the runtime and the simulator use), so a runtime that
// ignores topology and reclaims against the flat prefix-sum block is
// caught by reclaim-home-only. Each completed batch is additionally
// checked against an independent free-run model of the machine: walking
// the slots in placement order, a program whose entitlement fits some
// free within-socket run must receive a block that does not straddle a
// socket boundary (placement-socket-affinity).
//
// Order-insensitive checks (the list above) run on every event. Transition
// checks that depend on cross-goroutine event order (claim of an occupied
// core, release by a non-owner, exact three-case wake counts) are gated
// behind Strict mode, which is only sound in lockstep tests driven by a
// vclock.Fake where the system quiesces between advances.
package schedcheck

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"

	"dws/internal/arbiter"
	"dws/internal/coretable"
	"dws/internal/rt"
	"dws/internal/topo"
	"dws/internal/trace"
)

// Violation is one invariant breach, recorded with the event that exposed
// it. Seq is the checker's global event sequence number at that point.
type Violation struct {
	Invariant string      `json:"invariant"`
	Detail    string      `json:"detail"`
	Seq       int64       `json:"seq"`
	Event     trace.Event `json:"event"`
}

func (v Violation) String() string {
	return fmt.Sprintf("[%s] %s (seq %d, event %s prog=%d core=%d)",
		v.Invariant, v.Detail, v.Seq, v.Event.Kind, v.Event.Prog, v.Event.Core)
}

// Options configures a Checker.
type Options struct {
	// Cores is the system's k.
	Cores int
	// Programs is the system's m (fixes the home blocks, which follow
	// coretable.HomeCores like the runtime's).
	Programs int
	// Policy is the system policy under observation.
	Policy rt.Policy
	// SocketSize is the number of cores per socket of the observed
	// machine (0 or ≥ Cores = flat). On a multi-socket geometry the
	// entitled home blocks are the placed ones (arbiter.Place) and each
	// entitlement batch is checked for socket affinity.
	SocketSize int
	// Strict enables the exact three-case wake-count assertion
	// (Woken == min(N_w, N_f + N_r) per coordinator pass). Each tick's
	// fields are internally consistent, so this needs no cross-goroutine
	// event ordering — but it does assume claims and wakes in a pass do
	// not race with other actors, i.e. orchestrated fake-clock tests.
	Strict bool
	// StrictOccupancy additionally enforces per-event occupancy
	// transition legality (claim only of free cores, release only by the
	// owner, …). Sound only in fully lockstep scenarios: the emissions of
	// two racing actors (a worker's release vs another coordinator's
	// claim of the same core) can reach the checker out of table order.
	StrictOccupancy bool
	// KeepEvents retains the full event stream for artifact dumps.
	KeepEvents bool
}

// Checker is a concurrency-safe trace.Observer implementation that models
// the system state implied by the event stream and records invariant
// violations. Plug Observe into rt.Config.Observer or sim.Machine.Observe.
type Checker struct {
	opt   Options
	tp    *topo.Topology
	homes [][]int // per 0-based slot

	mu         sync.Mutex
	seq        int64
	occ        []int32            // modeled table occupancy (DWS)
	asleep     map[int32][]bool   // per prog ID, per core: modeled sleeping
	epochs     map[int32]int64    // last seen lease epoch per prog ID
	lastDone   map[int32][2]int64 // spawned, executed
	counts     map[trace.Kind]int64
	events     []trace.Event
	violations []Violation

	// Entitlement model (populated by trace.Entitle rows).
	ents       []int64       // current modeled entitlement per slot
	prevEnts   []int64       // vector before the in-progress/last batch
	entEpoch   int64         // current batch epoch (0 = never arbitrated)
	entRows    []trace.Event // rows of the in-progress batch
	pendingRec []trace.Event // reclaims awaiting the next batch to judge
}

// New returns a Checker for a system of opt.Cores cores and opt.Programs
// program slots.
func New(opt Options) *Checker {
	if opt.Cores <= 0 || opt.Programs <= 0 || opt.Programs > opt.Cores {
		panic(fmt.Sprintf("schedcheck: bad geometry %d cores / %d programs",
			opt.Cores, opt.Programs))
	}
	c := &Checker{
		opt:      opt,
		tp:       topo.Uniform(opt.Cores, opt.SocketSize),
		occ:      make([]int32, opt.Cores),
		asleep:   make(map[int32][]bool),
		epochs:   make(map[int32]int64),
		lastDone: make(map[int32][2]int64),
		counts:   make(map[trace.Kind]int64),
		ents:     make([]int64, opt.Programs),
	}
	for i := 0; i < opt.Programs; i++ {
		c.homes = append(c.homes, coretable.HomeCores(opt.Cores, opt.Programs, i))
	}
	return c
}

// Observe is the trace.Observer; pass it (or the method value) to
// rt.Config.Observer or sim.Machine.Observe.
func (c *Checker) Observe(ev trace.Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seq++
	c.counts[ev.Kind]++
	if c.opt.KeepEvents {
		c.events = append(c.events, ev)
	}

	switch ev.Kind {
	case trace.Sleep:
		a := c.asleepOf(ev.Prog)
		if a[ev.Core] {
			c.violate("sleep-wake-alternation", ev,
				"worker slept while already modeled sleeping")
		}
		a[ev.Core] = true
	case trace.Wake:
		a := c.asleepOf(ev.Prog)
		if !a[ev.Core] {
			c.violate("sleep-wake-alternation", ev,
				"worker woken while already modeled active")
		}
		a[ev.Core] = false
	case trace.Claim:
		if c.opt.StrictOccupancy && c.occ[ev.Core] != coretable.Free {
			c.violate("occupancy-transition", ev,
				fmt.Sprintf("claim of core %d modeled as held by p%d", ev.Core, c.occ[ev.Core]))
		}
		c.occ[ev.Core] = ev.Prog
	case trace.Reclaim:
		switch {
		case ev.Epoch > c.entEpoch:
			// The reclaim is stamped with an entitlement epoch whose batch
			// rows have not reached us yet (the arbiter publishes to the
			// table before its rows reach the observer) — judging it now
			// against the stale vector, or against the static homes before
			// the first batch, could legalise a cross-block reclaim. Hold
			// it until the stamped batch arrives.
			c.pendingRec = append(c.pendingRec, ev)
		case !c.reclaimInHome(ev.Prog, ev.Core):
			if c.entEpoch > 0 {
				// The coordinator may be acting on a batch published an
				// instant before its rows reached us; the next batch (or
				// stream end) judges it.
				c.pendingRec = append(c.pendingRec, ev)
			} else {
				c.violate("reclaim-home-only", ev,
					fmt.Sprintf("p%d reclaimed core %d outside its home block", ev.Prog, ev.Core))
			}
		}
		if ev.Victim == ev.Prog || ev.Victim == coretable.Free {
			c.violate("reclaim-victim", ev,
				fmt.Sprintf("reclaim with victim p%d", ev.Victim))
		}
		if c.opt.StrictOccupancy && c.occ[ev.Core] != ev.Victim {
			c.violate("occupancy-transition", ev,
				fmt.Sprintf("reclaim of core %d from p%d but modeled occupant is p%d",
					ev.Core, ev.Victim, c.occ[ev.Core]))
		}
		c.occ[ev.Core] = ev.Prog
	case trace.Release:
		if c.opt.StrictOccupancy && c.occ[ev.Core] != ev.Prog {
			c.violate("occupancy-transition", ev,
				fmt.Sprintf("release of core %d by p%d but modeled occupant is p%d",
					ev.Core, ev.Prog, c.occ[ev.Core]))
		}
		c.occ[ev.Core] = coretable.Free
	case trace.Join:
		if last, ok := c.epochs[ev.Prog]; ok && ev.Epoch <= last {
			c.violate("lease-epoch-monotone", ev,
				fmt.Sprintf("join epoch %d after epoch %d", ev.Epoch, last))
		}
		c.epochs[ev.Prog] = ev.Epoch
		c.asleepOf(ev.Prog) // establish the initial model at join time
	case trace.Sweep:
		if last, ok := c.epochs[ev.Victim]; ok && ev.Epoch > last {
			c.violate("lease-epoch-monotone", ev,
				fmt.Sprintf("sweep of future epoch %d (last joined %d)", ev.Epoch, last))
		}
		freed := 0
		for i := range c.occ {
			if c.occ[i] == ev.Victim {
				c.occ[i] = coretable.Free
				freed++
			}
		}
		if c.opt.StrictOccupancy && freed != ev.Cores {
			c.violate("occupancy-transition", ev,
				fmt.Sprintf("sweep freed %d cores but model held %d for p%d",
					ev.Cores, freed, ev.Victim))
		}
	case trace.CoordTick:
		c.checkCoordTick(ev)
	case trace.Entitle:
		c.checkEntitle(ev)
	case trace.RunDone:
		if ev.Spawned != ev.Executed {
			c.violate("task-conservation", ev,
				fmt.Sprintf("run boundary with %d spawned, %d executed",
					ev.Spawned, ev.Executed))
		}
		prev := c.lastDone[ev.Prog]
		if ev.Spawned < prev[0] || ev.Executed < prev[1] {
			c.violate("task-conservation", ev,
				fmt.Sprintf("counters regressed: (%d,%d) after (%d,%d)",
					ev.Spawned, ev.Executed, prev[0], prev[1]))
		}
		c.lastDone[ev.Prog] = [2]int64{ev.Spawned, ev.Executed}
	}
}

// checkCoordTick asserts the §3.3 three-case rule on one coordinator pass.
// Caller holds c.mu.
func (c *Checker) checkCoordTick(ev trace.Event) {
	// N_w = N_b / N_a (all of N_b when nothing is active). Ticks with
	// N_w = 0 are not emitted.
	wantNW := ev.NB
	if ev.NA > 0 {
		wantNW = ev.NB / ev.NA
	}
	if ev.NW != wantNW {
		c.violate("three-case-rule", ev,
			fmt.Sprintf("N_w = %d but N_b/N_a = %d/%d gives %d", ev.NW, ev.NB, ev.NA, wantNW))
	}
	if ev.Woken > ev.NW {
		c.violate("three-case-rule", ev,
			fmt.Sprintf("woke %d workers, more than N_w = %d", ev.Woken, ev.NW))
	}
	if ev.Claimed > ev.NF {
		c.violate("three-case-rule", ev,
			fmt.Sprintf("claimed %d free cores, more than N_f = %d", ev.Claimed, ev.NF))
	}
	if ev.Reclaimed > ev.NR {
		c.violate("three-case-rule", ev,
			fmt.Sprintf("reclaimed %d cores, more than N_r = %d", ev.Reclaimed, ev.NR))
	}
	if c.opt.Policy == rt.DWS && ev.Woken > ev.Claimed+ev.Reclaimed {
		c.violate("three-case-rule", ev,
			fmt.Sprintf("woke %d workers but only took %d cores",
				ev.Woken, ev.Claimed+ev.Reclaimed))
	}
	if c.opt.Strict && c.opt.Policy == rt.DWS {
		// Lockstep: every claim and wake succeeds, so the pass must wake
		// exactly min(N_w, N_f + N_r) workers — the assertion that catches
		// a coordinator which skips the reclaim cases (2 and 3).
		want := ev.NW
		if avail := ev.NF + ev.NR; avail < want {
			want = avail
		}
		if ev.Woken != want {
			c.violate("three-case-rule", ev,
				fmt.Sprintf("woke %d workers, want min(N_w=%d, N_f+N_r=%d) = %d",
					ev.Woken, ev.NW, ev.NF+ev.NR, want))
		}
	}
}

// checkEntitle folds one trace.Entitle row into the entitlement model and
// asserts the batch invariants. Caller holds c.mu.
func (c *Checker) checkEntitle(ev trace.Event) {
	slot := int(ev.Prog) - 1
	if slot < 0 || slot >= c.opt.Programs {
		c.violate("entitlement-batch", ev,
			fmt.Sprintf("row for unknown program p%d", ev.Prog))
		return
	}
	switch {
	case ev.Epoch <= 0 || ev.Epoch < c.entEpoch:
		c.violate("entitlement-epoch-monotone", ev,
			fmt.Sprintf("batch epoch %d after epoch %d", ev.Epoch, c.entEpoch))
		return
	case ev.Epoch == c.entEpoch && len(c.entRows) == 0:
		// The previous batch of this epoch already completed.
		c.violate("entitlement-epoch-monotone", ev,
			fmt.Sprintf("extra row after the batch of epoch %d completed", ev.Epoch))
		return
	case ev.Epoch > c.entEpoch:
		if len(c.entRows) > 0 {
			c.violate("entitlement-batch", ev,
				fmt.Sprintf("batch of epoch %d started with %d/%d rows of epoch %d outstanding",
					ev.Epoch, len(c.entRows), c.entRows[0].Batch, c.entEpoch))
		}
		c.prevEnts = append([]int64(nil), c.ents...)
		c.entEpoch = ev.Epoch
		c.entRows = c.entRows[:0]
	}

	if ev.Active && ev.ENew < ev.Floor {
		c.violate("entitlement-floor", ev,
			fmt.Sprintf("active p%d entitled %d cores, below its weighted floor %d",
				ev.Prog, ev.ENew, ev.Floor))
	}
	if c.ents[slot] != int64(ev.EOld) {
		c.violate("entitlement-batch", ev,
			fmt.Sprintf("row says p%d moved %d→%d but model holds %d",
				ev.Prog, ev.EOld, ev.ENew, c.ents[slot]))
	}
	c.ents[slot] = int64(ev.ENew)
	var sum int64
	for _, e := range c.ents {
		sum += e
	}
	if sum > int64(c.opt.Cores) {
		c.violate("entitlement-sum", ev,
			fmt.Sprintf("entitlements sum to %d of %d cores mid-batch (growth emitted before shrink?)",
				sum, c.opt.Cores))
	}
	c.entRows = append(c.entRows, ev)
	if ev.Batch > 0 && len(c.entRows) >= ev.Batch {
		c.checkEntitleBatch()
		c.checkPlacementBatch()
		c.entRows = c.entRows[:0]
		c.resolvePendingReclaims()
	}
}

// checkEntitleBatch recomputes the apportionment from the completed
// batch's reported scores and floors and demands the published vector
// match exactly — the check that catches an arbiter ignoring weights.
// Caller holds c.mu.
func (c *Checker) checkEntitleBatch() {
	scores := make([]float64, c.opt.Programs)
	floors := make([]int32, c.opt.Programs)
	for _, r := range c.entRows {
		s := int(r.Prog) - 1
		scores[s], floors[s] = r.Score, int32(r.Floor)
	}
	want := arbiter.Apportion(c.opt.Cores, scores, floors)
	for i := range want {
		if int64(want[i]) != c.ents[i] {
			c.violate("entitlement-apportion", c.entRows[len(c.entRows)-1],
				fmt.Sprintf("published vector %v does not match Apportion(%v, floors %v) = %v — weights ignored?",
					c.ents, scores, floors, want))
			return
		}
	}
}

// resolvePendingReclaims re-judges reclaims that could not be judged when
// observed, against the vector the completed batch installed. Reclaims
// stamped with a still-future epoch stay pending for the next batch.
// Caller holds c.mu.
func (c *Checker) resolvePendingReclaims() {
	keep := c.pendingRec[:0]
	for _, ev := range c.pendingRec {
		if ev.Epoch > c.entEpoch {
			keep = append(keep, ev)
			continue
		}
		if !c.reclaimInHome(ev.Prog, ev.Core) {
			c.violate("reclaim-home-only", ev,
				fmt.Sprintf("p%d reclaimed core %d outside its entitled home block", ev.Prog, ev.Core))
		}
	}
	c.pendingRec = keep
}

// reclaimInHome reports whether core is a legal reclaim target for prog:
// the static home block before any arbitration, the current or previous
// entitled block after. Caller holds c.mu.
func (c *Checker) reclaimInHome(prog int32, core int) bool {
	if c.entEpoch == 0 {
		return c.isHome(prog, core)
	}
	idx := int(prog) - 1
	if idx < 0 || idx >= c.opt.Programs {
		return false
	}
	if c.inEntBlock(c.ents, idx, core) {
		return true
	}
	return c.prevEnts != nil && c.inEntBlock(c.prevEnts, idx, core)
}

// inEntBlock reports whether core lies in slot idx's entitled block. On a
// flat topology that mirrors coretable.EntitledBlock — the block starts
// at the prefix sum of the lower slots' entitlements; on a multi-socket
// one it is membership in the placed block, recomputed from the size
// vector exactly as the runtime and the simulator recompute it. Caller
// holds c.mu.
func (c *Checker) inEntBlock(ents []int64, idx int, core int) bool {
	if !c.tp.Flat() {
		for _, pc := range arbiter.PlacedFor(c.tp, entsInt32(ents), idx) {
			if pc == core {
				return true
			}
		}
		return false
	}
	var start int64
	for i := 0; i < idx; i++ {
		start += ents[i]
	}
	end := start + ents[idx]
	if end > int64(c.opt.Cores) {
		end = int64(c.opt.Cores)
	}
	return int64(core) >= start && int64(core) < end
}

func entsInt32(ents []int64) []int32 {
	out := make([]int32, len(ents))
	for i, e := range ents {
		out[i] = int32(e)
	}
	return out
}

// checkPlacementBatch asserts socket affinity of the vector the completed
// batch installed, against an independent free-run model (not Place's own
// bookkeeping): walking the slots in placement order over a free-core
// set, every entitled block must be disjoint and exactly its published
// size, and a program whose entitlement fits some free run within one
// socket must not be handed a block straddling a socket boundary. No-op
// on a flat topology. Caller holds c.mu.
func (c *Checker) checkPlacementBatch() {
	if c.tp.Flat() {
		return
	}
	ev := c.entRows[len(c.entRows)-1]
	placed := arbiter.Place(c.tp, entsInt32(c.ents))
	free := make([]bool, c.opt.Cores)
	for i := range free {
		free[i] = true
	}
	for idx, block := range placed {
		if int64(len(block)) != c.ents[idx] {
			c.violate("placement-socket-affinity", ev,
				fmt.Sprintf("slot %d placed on %d cores, entitled %d", idx, len(block), c.ents[idx]))
			return
		}
		fits := false
		for s := 0; s < c.tp.NumSockets() && !fits; s++ {
			run := 0
			for _, core := range c.tp.Socket(s) {
				if free[core] {
					run++
					if int64(run) >= c.ents[idx] {
						fits = true
						break
					}
				} else {
					run = 0
				}
			}
		}
		sockets := map[int]bool{}
		for _, core := range block {
			if !free[core] {
				c.violate("placement-socket-affinity", ev,
					fmt.Sprintf("slot %d placed on core %d already granted to a lower slot", idx, core))
				return
			}
			free[core] = false
			sockets[c.tp.SocketOf(core)] = true
		}
		if fits && len(sockets) > 1 {
			c.violate("placement-socket-affinity", ev,
				fmt.Sprintf("slot %d (%d cores) straddles %d sockets though a within-socket run fit",
					idx, len(block), len(sockets)))
		}
	}
}

// asleepOf returns (lazily creating) the modeled sleep state of prog's
// workers. Under DWS and DWS-NC workers outside the home block start
// asleep without a trace.Sleep event. Caller holds c.mu.
func (c *Checker) asleepOf(prog int32) []bool {
	if a, ok := c.asleep[prog]; ok {
		return a
	}
	a := make([]bool, c.opt.Cores)
	if c.opt.Policy == rt.DWS || c.opt.Policy == rt.DWSNC {
		for i := range a {
			a[i] = !c.isHome(prog, i)
		}
	}
	c.asleep[prog] = a
	return a
}

func (c *Checker) isHome(prog int32, core int) bool {
	idx := int(prog) - 1
	if idx < 0 || idx >= len(c.homes) {
		return false
	}
	for _, h := range c.homes[idx] {
		if h == core {
			return true
		}
	}
	return false
}

func (c *Checker) violate(inv string, ev trace.Event, detail string) {
	c.violations = append(c.violations, Violation{
		Invariant: inv, Detail: detail, Seq: c.seq, Event: ev,
	})
}

// Checkpoint reconciles the modeled occupancy against an authoritative
// table snapshot (rt.System.Occupants). It is only meaningful at quiescent
// points — after the system has settled under a fake clock — where every
// emission has been processed. Mismatches are recorded and returned.
func (c *Checker) Checkpoint(snapshot []int32) []Violation {
	c.mu.Lock()
	defer c.mu.Unlock()
	var got []Violation
	for i, want := range snapshot {
		if i >= len(c.occ) {
			break
		}
		if c.occ[i] != want {
			v := Violation{
				Invariant: "occupancy-checkpoint",
				Detail: fmt.Sprintf("core %d: model holds p%d, table holds p%d",
					i, c.occ[i], want),
				Seq:   c.seq,
				Event: trace.Event{Kind: trace.CoordTick, Prog: 0, Core: i},
			}
			c.violations = append(c.violations, v)
			got = append(got, v)
		}
	}
	return got
}

// InSync reports whether the modeled occupancy currently matches
// snapshot, recording nothing. Tests poll it to detect that every
// in-flight emission has been processed before a recording Checkpoint.
func (c *Checker) InSync(snapshot []int32) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, want := range snapshot {
		if i >= len(c.occ) {
			break
		}
		if c.occ[i] != want {
			return false
		}
	}
	return true
}

// Violations returns a copy of all recorded violations, plus one
// reclaim-home-only entry per reclaim still awaiting an entitlement batch
// to justify it (at a quiescent stream end, "awaiting" means illegal).
// The pending entries are derived, not recorded: a batch arriving after
// this call can still resolve them.
func (c *Checker) Violations() []Violation {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := append([]Violation(nil), c.violations...)
	for _, ev := range c.pendingRec {
		out = append(out, Violation{
			Invariant: "reclaim-home-only",
			Detail: fmt.Sprintf("p%d reclaimed core %d outside its entitled home block (no batch justified it)",
				ev.Prog, ev.Core),
			Seq: c.seq, Event: ev,
		})
	}
	return out
}

// Err returns nil if no invariant was violated, else an error summarising
// the first violation and the total count.
func (c *Checker) Err() error {
	c.mu.Lock()
	n := len(c.violations) + len(c.pendingRec)
	c.mu.Unlock()
	if n == 0 {
		return nil
	}
	vs := c.Violations()
	return fmt.Errorf("schedcheck: %d violation(s), first: %s", len(vs), vs[0])
}

// EntitlementEpoch returns the latest entitlement epoch whose batch rows
// the checker has observed (0 until the first complete publish). Test
// harnesses compare it against the runtime table's epoch to know when the
// checker's view of entitlements has caught up with a concurrent publish.
func (c *Checker) EntitlementEpoch() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.entEpoch
}

// Count returns how many events of kind were observed.
func (c *Checker) Count(kind trace.Kind) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.counts[kind]
}

// Events returns the retained event stream (empty unless KeepEvents).
func (c *Checker) Events() []trace.Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]trace.Event(nil), c.events...)
}

// WriteJSONL streams the violations (and, with KeepEvents, the full event
// stream) as JSON lines: the repro artifact format the CI job uploads on
// failure. Each line is {"violation": ...} or {"event": ...}.
func (c *Checker) WriteJSONL(w io.Writer) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	enc := json.NewEncoder(w)
	for _, ev := range c.events {
		if err := enc.Encode(map[string]any{"event": ev}); err != nil {
			return err
		}
	}
	for _, v := range c.violations {
		if err := enc.Encode(map[string]any{"violation": v}); err != nil {
			return err
		}
	}
	return nil
}

// DumpArtifact writes the JSONL artifact to path (creating parents is the
// caller's job); used by tests to leave a repro trail on failure.
func (c *Checker) DumpArtifact(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return c.WriteJSONL(f)
}
