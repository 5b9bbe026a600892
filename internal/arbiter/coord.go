package arbiter

import (
	"math/rand"

	"dws/internal/coretable"
	"dws/internal/trace"
)

// The coordinator (PAPER.md §3.3), clock-free so the live runtime and the
// simulator run the same pass: each substrate measures its own demand
// and hands it to its program's Coordinator, which observes the table
// through a Crew, decides with Want and Plan, and acts through the CAS
// protocol. The substrates keep only their clocks, locks and counters.

// Want returns N_w, the number of workers a coordinator pass tries to
// wake: N_b / N_a, or N_b when no worker is active.
func Want(nb, na int) int {
	if na == 0 {
		return nb
	}
	return nb / na
}

// Plan applies the three-case rule to nw wanted workers, the free cores
// whose affined worker sleeps (N_f = len(free)) and the sleeping workers'
// home cores held by another program (N_r = len(borrowed)). It returns
// the cores to claim, then the cores to reclaim — at most nw in all:
//
//   - case 1, nw ≤ N_f: nw free cores drawn at random;
//   - case 2, nw ≤ N_f + N_r: every free core and nw − N_f borrowed
//     home cores drawn at random;
//   - case 3: every free core and every borrowed home core.
//
// Case 1 draws rng.Perm(N_f), case 2 rng.Perm(N_r), case 3 nothing;
// that fixed draw is part of the contract, since the simulator's
// outputs depend on it. The returned slices alias free, borrowed or the
// drawn permutation.
func Plan(nw int, free, borrowed []int, rng *rand.Rand) (claim, reclaim []int) {
	nf, nr := len(free), len(borrowed)
	switch {
	case nw <= 0:
		return nil, nil
	case nw <= nf:
		return pick(free, nw, rng), nil
	case nw <= nf+nr:
		return free, pick(borrowed, nw-nf, rng)
	default:
		return free, borrowed
	}
}

// pick returns n of xs in the order rng.Perm(len(xs)) lists them,
// mapped in place over the permutation.
func pick(xs []int, n int, rng *rand.Rand) []int {
	perm := rng.Perm(len(xs))[:n]
	for i, j := range perm {
		perm[i] = xs[j]
	}
	return perm
}

// Crew is a coordinator's view of one program's workers, each named by
// the core it is affined to.
type Crew interface {
	// Asleep reports whether the worker on core c sleeps.
	Asleep(c int) bool
	// Wake wakes the worker on core c, reporting whether it was asleep.
	Wake(c int) bool
	// Home returns the program's current home block (Home), the only
	// cores it reclaims.
	Home() []int
	// Emit reports one of the coordinator's scheduling events.
	Emit(ev trace.Event)
}

// Coordinator is one program's coordinator over the shared core table.
// It is not safe for concurrent use: the live runtime serialises its
// passes and regrabs under one lock.
type Coordinator struct {
	// Table is the core allocation table; nil under DWS-NC, whose
	// passes wake sleeping workers with no table traffic.
	Table *coretable.Table
	PID   int32 // the program's 1-based table ID
	Cores int   // k, the number of workers in Crew
	Crew  Crew
	RNG   *rand.Rand // Plan's draws

	free, borrowed []int // observation scratch, reused pass to pass
}

// Pass is one coordinator pass's decision: the CoordTick event carrying
// the observation, and the cores Plan chose to claim, then to reclaim.
// Under DWS-NC Claim lists the sleepers to wake.
type Pass struct {
	Tick           trace.Event
	Claim, Reclaim []int
}

// Decide observes the program for a pass with nb queued tasks and na
// active workers: the free cores whose worker sleeps (N_f) and the
// sleeping workers' home cores held by another program (N_r), or under
// DWS-NC every sleeping worker. It reports false when there is no demand
// and so no pass. The pass aliases the coordinator's scratch until the
// next Decide.
func (co *Coordinator) Decide(nb, na int) (Pass, bool) {
	if nb == 0 {
		return Pass{}, false
	}
	nw := Want(nb, na)
	if nw <= 0 {
		return Pass{}, false
	}
	ps := Pass{Tick: trace.Event{Kind: trace.CoordTick, Prog: co.PID, Core: -1, NB: nb, NA: na, NW: nw}}
	t := co.Table
	free := co.free[:0]
	for c := 0; c < co.Cores; c++ {
		if (t == nil || t.Occupant(c) == coretable.Free) && co.Crew.Asleep(c) {
			free = append(free, c)
		}
	}
	co.free = free
	if t == nil {
		// N_w clamped to the sleepers keeps the pass in case 1: a random
		// N_w of them, or all of them in a random order.
		ps.Claim, _ = Plan(min(nw, len(free)), free, nil, co.RNG)
		return ps, true
	}
	borrowed := co.borrowed[:0]
	for _, c := range co.Crew.Home() {
		if occ := t.Occupant(c); occ != co.PID && occ != coretable.Free && co.Crew.Asleep(c) {
			borrowed = append(borrowed, c)
		}
	}
	co.borrowed = borrowed
	ps.Tick.NF, ps.Tick.NR = len(free), len(borrowed)
	ps.Claim, ps.Reclaim = Plan(nw, free, borrowed, co.RNG)
	return ps, true
}

// Act carries a pass out — at most N_w actions — and emits its CoordTick
// event, which it returns. Every action re-checks its condition through
// the CAS protocol, so a stale observation only costs a skipped wake: a
// claimed core whose worker does not wake is released again, and a
// reclaim raises the borrower's eviction flag. Reclaims are stamped with
// the entitlement epoch read after Decide derived the home block, so a
// concurrent publish can only make the stamp newer: observers judging
// reclaim legality defer to the stamped batch. Under DWS-NC it only
// wakes.
func (co *Coordinator) Act(ps Pass) trace.Event {
	t, crew, ev := co.Table, co.Crew, ps.Tick
	if t == nil {
		for _, c := range ps.Claim {
			if crew.Wake(c) {
				ev.Woken++
			}
		}
		crew.Emit(ev)
		return ev
	}
	for _, c := range ps.Claim {
		if !crew.Asleep(c) || !t.ClaimFree(c, co.PID) {
			continue
		}
		crew.Emit(trace.Event{Kind: trace.Claim, Prog: co.PID, Core: c})
		ev.Claimed++
		if crew.Wake(c) {
			ev.Woken++
		} else if t.Release(c, co.PID) {
			// The worker raced away; return the slot.
			crew.Emit(trace.Event{Kind: trace.Release, Prog: co.PID, Core: c})
		}
	}
	epoch := t.EntitlementEpoch()
	for _, c := range ps.Reclaim {
		if !crew.Asleep(c) {
			continue
		}
		occ := t.Occupant(c)
		if occ == co.PID || occ == coretable.Free || !t.Reclaim(c, co.PID, occ) {
			continue
		}
		crew.Emit(trace.Event{Kind: trace.Reclaim, Prog: co.PID, Core: c, Victim: occ, Epoch: epoch})
		ev.Reclaimed++
		if crew.Wake(c) {
			ev.Woken++
		}
	}
	crew.Emit(ev)
	return ev
}

// Regrab re-takes the program's home block when a run starts, as a
// freshly launched process starts with its share (§3.1): for each home
// core whose worker sleeps, a free core is claimed and a borrowed one
// reclaimed (its borrower evicted), and the worker is woken. Home cores
// whose worker is awake are left alone. Under DWS-NC it wakes the home
// workers. It returns the claims and reclaims made.
func (co *Coordinator) Regrab() (claimed, reclaimed int) {
	t, crew := co.Table, co.Crew
	home := crew.Home()
	if t == nil {
		for _, c := range home {
			crew.Wake(c)
		}
		return 0, 0
	}
	epoch := t.EntitlementEpoch()
	for _, c := range home {
		if !crew.Asleep(c) {
			continue
		}
		switch occ := t.Occupant(c); {
		case occ == coretable.Free && t.ClaimFree(c, co.PID):
			claimed++
			crew.Emit(trace.Event{Kind: trace.Claim, Prog: co.PID, Core: c})
		case occ != coretable.Free && occ != co.PID && t.Reclaim(c, co.PID, occ):
			reclaimed++
			crew.Emit(trace.Event{Kind: trace.Reclaim, Prog: co.PID, Core: c, Victim: occ, Epoch: epoch})
		default:
			continue
		}
		crew.Wake(c)
	}
	return claimed, reclaimed
}
