package schedcheck

import (
	"testing"
	"time"

	"dws/internal/arbiter"
	"dws/internal/rt"
	"dws/internal/topo"
	"dws/internal/trace"
	"dws/internal/vclock"
)

// --- Placed-block reclaim legality on synthetic event streams. With
// SocketSize 2 on 6 cores, the batch (3, 2, 1) places p1 on [0,1,2]
// (torn), p2 on [4,5] (whole socket) and p3 on [3] (the tail fragment) —
// not the flat prefix blocks [0,1,2]/[3,4]/[5] — so reclaim legality must
// follow the placed geometry in both directions. ------------------------

// batch321 publishes the weighted (3, 2, 1) split on a 6-core/3-program
// checker: Apportion(6, [2 1 1], [1 1 1]) = (3, 2, 1).
func batch321(c *Checker) {
	c.Observe(entRow(1, 0, 3, 1, 2, true, 1, 3))
	c.Observe(entRow(2, 0, 2, 1, 1, true, 1, 3))
	c.Observe(entRow(3, 0, 1, 1, 1, true, 1, 3))
}

func TestCheckerPlacedReclaimHomeOnly(t *testing.T) {
	c := New(Options{Cores: 6, Programs: 3, Policy: rt.DWS, SocketSize: 2})
	batch321(c)
	// Both reclaims sit inside placed blocks but outside the flat ones.
	c.Observe(trace.Event{Kind: trace.Reclaim, Prog: 2, Core: 5, Victim: 1})
	c.Observe(trace.Event{Kind: trace.Reclaim, Prog: 3, Core: 3, Victim: 1})
	if err := c.Err(); err != nil {
		t.Fatalf("reclaims inside the placed blocks flagged: %v", err)
	}
	// Core 3 is in p2's flat prefix block [3,4] but not its placed [4,5].
	c.Observe(trace.Event{Kind: trace.Reclaim, Prog: 2, Core: 3, Victim: 1})
	if !hasViolation(c, "reclaim-home-only") {
		t.Fatal("reclaim of a flat-block core outside the placed block not flagged")
	}

	// The flat twin: without a topology the same batch keeps prefix-sum
	// semantics, so the legal/illegal cores swap.
	c = New(Options{Cores: 6, Programs: 3, Policy: rt.DWS})
	batch321(c)
	c.Observe(trace.Event{Kind: trace.Reclaim, Prog: 2, Core: 3, Victim: 1})
	if err := c.Err(); err != nil {
		t.Fatalf("flat-legal reclaim flagged: %v", err)
	}
	c.Observe(trace.Event{Kind: trace.Reclaim, Prog: 3, Core: 3, Victim: 1})
	if !hasViolation(c, "reclaim-home-only") {
		t.Fatal("flat checker accepted p3 reclaiming a core of p2's block")
	}
}

// TestCheckerPlacementAffinitySilent feeds legal multi-socket batches —
// including ones whose blocks must tear across sockets — through the
// independent free-run model in checkPlacementBatch: none may trip the
// placement-socket-affinity invariant, because arbiter.Place only ever
// straddles when the program cannot fit in any one socket.
func TestCheckerPlacementAffinitySilent(t *testing.T) {
	c := New(Options{Cores: 6, Programs: 3, Policy: rt.DWS, SocketSize: 2})
	batch321(c) // p1 tears [0,1]+[2]; p2 and p3 fit whole
	if err := c.Err(); err != nil {
		t.Fatalf("legal torn placement flagged: %v", err)
	}

	c = New(Options{Cores: 8, Programs: 2, Policy: rt.DWS, SocketSize: 4})
	c.Observe(entRow(1, 0, 6, 2, 3, true, 1, 2)) // tears 4+2
	c.Observe(entRow(2, 0, 2, 1, 1, true, 1, 2)) // fits the remnant run
	if err := c.Err(); err != nil {
		t.Fatalf("legal 8-core placement flagged: %v", err)
	}
}

// --- The orchestrated live twin: three weighted programs on a 6-core,
// 2-cores-per-socket machine, driven to the point where the placed and
// flat entitled blocks disagree, then the mid-weight program's demand
// spikes so its coordinator must reclaim. Clean, the reclaims land in the
// placed socket [4,5]; with FaultFlatPlacement the runtime walks the flat
// prefix block [3,4] instead and the checker must catch core 3. ---------

// localityScenario returns the checker after the full exchange. Weights
// are (2, 1, 1); once all three programs are active the arbiter settles
// (3, 2, 1), where p2 and p3 diverge: placed [4,5]/[3] versus flat
// [3,4]/[5]. p1's block is [0,1,2] under both, so the borrower behaves
// identically in the clean and faulty runs — the only divergent behavior
// is the reclaim under test. The batches published before p2 wakes —
// the all-idle init (3, 2, 1) and/or the p1+p3-active (4, 0, 2) —
// depend on when the arbiter's first tick lands relative to p1's demand,
// and either one forces the faulty flat walk outside p2's placed block.
func localityScenario(t *testing.T, fault bool) *Checker {
	t.Helper()
	fake := vclock.NewFake()
	ck := New(Options{Cores: 6, Programs: 3, Policy: rt.DWS, SocketSize: 2})
	sys, err := rt.NewSystem(rt.Config{
		Cores: 6, Programs: 3, Policy: rt.DWS,
		TSleep: 2, CoordPeriod: scenarioPeriod, ArbiterPeriod: scenarioPeriod,
		Clock: fake, Observer: ck.Observe,
		Topology:           topo.Uniform(6, 2),
		FaultFlatPlacement: fault,
		Arbiter:            &arbiter.Config{},
	})
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	p1, err := sys.NewProgram("gold") // table ID 1, static home {0, 1}
	if err != nil {
		t.Fatal(err)
	}
	p2, err := sys.NewProgram("silver") // table ID 2, static home {2, 3}
	if err != nil {
		t.Fatal(err)
	}
	p3, err := sys.NewProgram("bronze") // table ID 3, static home {4, 5}
	if err != nil {
		t.Fatal(err)
	}
	p1.SetQoS(2, 0)

	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s (table %v, violations %v)",
					what, sys.Occupants(), ck.Violations())
			}
			time.Sleep(50 * time.Microsecond)
		}
	}
	waitTicks := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out advancing for %s (table %v, ents %v, violations %v)",
					what, sys.Occupants(), sys.Entitlements(), ck.Violations())
			}
			fake.Advance(scenarioPeriod)
			time.Sleep(50 * time.Microsecond)
		}
	}
	allFree := func() bool {
		for _, o := range sys.Occupants() {
			if o != 0 {
				return false
			}
		}
		return true
	}

	// Phase 0 — quiesce: every static home worker parks and releases.
	waitFor("initial quiesce", func() bool {
		return p1.Stats().Sleeps == 2 && p2.Stats().Sleeps == 2 &&
			p3.Stats().Sleeps == 2 && allFree()
	})

	// Phase 1 — p3 runs a root that blocks: one home worker holds it (on
	// core 4 or 5 — the winner is scheduling-dependent, so record it), the
	// other parks again. The blocked root keeps p3 active for the arbiter
	// without generating any demand.
	gate3 := make(chan struct{})
	d3 := make(chan error, 1)
	go func() { d3 <- p3.Run(func(c *rt.Ctx) { <-gate3 }) }()
	r3 := -1
	waitFor("p3's root to settle on a home core", func() bool {
		if p3.Stats().Sleeps != 3 {
			return false
		}
		occ := sys.Occupants()
		for _, c := range []int{4, 5} {
			if occ[c] == 3 {
				r3 = c
				return true
			}
		}
		return false
	})

	// Phase 2 — p1 spawns 8 gated children: more demand than the machine
	// has cores. p1's coordinator wakes its home workers and borrows every
	// remaining free core, ending with 5 cores while p3's root keeps the
	// sixth. Before phase 3 may start, at least one entitlement batch must
	// have been published AND observed by the checker: if p2's coordinator
	// ran pre-arbitration it would legally reclaim its static home {2,3}
	// and — already holding core 3 — the faulty flat walk would never have
	// to reclaim outside a placed block, leaving no violation to catch.
	gate1 := make(chan struct{})
	d1 := make(chan error, 1)
	go func() {
		d1 <- p1.Run(func(c *rt.Ctx) {
			for i := 0; i < 8; i++ {
				c.Spawn(func(*rt.Ctx) { <-gate1 })
			}
		})
	}()
	borrowed := 9 - r3 // the socket-2 core p3's root does not hold
	waitTicks("p1 to occupy every core but p3's root, post-arbitration", func() bool {
		occ := sys.Occupants()
		for _, c := range []int{0, 1, 2, 3, borrowed} {
			if occ[c] != 1 {
				return false
			}
		}
		e := sys.EntitlementEpoch()
		return e >= 1 && ck.EntitlementEpoch() >= e
	})

	// Phase 3 — p2's demand appears: after one tick it classifies active
	// and the hysteresis settles (3, 2, 1). Its coordinator sees no free
	// cores and must reclaim its entitled block from the borrowers: the
	// placed socket [4,5] when clean, the flat prefix [3,4] under the
	// fault — and core 3 is outside every placed block p2 ever held.
	gate2 := make(chan struct{})
	d2 := make(chan error, 1)
	go func() {
		d2 <- p2.Run(func(c *rt.Ctx) {
			for i := 0; i < 8; i++ {
				c.Spawn(func(*rt.Ctx) { <-gate2 })
			}
		})
	}()
	if fault {
		waitTicks("the checker to catch the flat-placement reclaim", func() bool {
			return hasViolation(ck, "reclaim-home-only")
		})
	} else {
		waitTicks("p2 to reclaim its placed socket", func() bool {
			occ := sys.Occupants()
			return occ[4] == 2 && occ[5] == 2
		})
	}

	// Phase 4 — open every gate, drain all three runs, and tear down under
	// the advance pump (as reclaimScenario does).
	close(gate1)
	close(gate2)
	close(gate3)
	for _, ch := range []chan error{d1, d2, d3} {
		select {
		case err := <-ch:
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("run did not complete after gates opened")
		}
	}
	waitFor("final quiesce", func() bool { return allFree() })

	closed := make(chan struct{})
	go func() { sys.Close(); close(closed) }()
	for {
		select {
		case <-closed:
			return ck
		default:
			fake.Advance(time.Millisecond)
			time.Sleep(50 * time.Microsecond)
		}
	}
}

// TestLocalityReclaimScenario is the clean twin: topology-aware placement
// with real reclaims into the placed socket, zero violations.
func TestLocalityReclaimScenario(t *testing.T) {
	ck := localityScenario(t, false)
	if err := ck.Err(); err != nil {
		t.Fatalf("clean locality scenario violated invariants: %v", err)
	}
	if n := ck.Count(trace.Reclaim); n < 2 {
		t.Fatalf("observed %d reclaims, want at least the two placed-socket ones", n)
	}
	if ck.Count(trace.Entitle) == 0 {
		t.Fatal("no entitle batches observed")
	}
}

// TestFaultFlatPlacementCaught plants the "ignore topology" bug: the
// runtime derives entitled blocks from the flat prefix sums while the
// topology says sockets of 2. The generalized reclaim-home-only invariant
// must catch the resulting cross-block reclaim deterministically.
func TestFaultFlatPlacementCaught(t *testing.T) {
	ck := localityScenario(t, true)
	vs := ck.Violations()
	if len(vs) == 0 {
		t.Fatal("injected flat-placement fault produced no violations")
	}
	if !hasViolation(ck, "reclaim-home-only") {
		t.Fatalf("flat-placement fault not caught as reclaim-home-only: %v", vs)
	}
}
