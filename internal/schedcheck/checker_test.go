package schedcheck

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"dws/internal/rt"
	"dws/internal/trace"
	"dws/internal/vclock"
)

// hasViolation reports whether the checker recorded at least one violation
// of the named invariant.
func hasViolation(c *Checker, invariant string) bool {
	for _, v := range c.Violations() {
		if v.Invariant == invariant {
			return true
		}
	}
	return false
}

func onlyViolations(t *testing.T, c *Checker, invariant string) {
	t.Helper()
	for _, v := range c.Violations() {
		if v.Invariant != invariant {
			t.Fatalf("unexpected violation %s (want only %q)", v, invariant)
		}
	}
}

// --- Synthetic event streams: each invariant must fire on a hand-built
// counterexample and stay silent on the legal twin. -----------------------

func TestCheckerSleepWakeAlternation(t *testing.T) {
	c := New(Options{Cores: 4, Programs: 2, Policy: rt.DWS})
	// Home of p1 is {0,1}: worker 0 starts modeled active, so a wake
	// without a preceding sleep breaks alternation.
	c.Observe(trace.Event{Kind: trace.Wake, Prog: 1, Core: 0})
	if !hasViolation(c, "sleep-wake-alternation") {
		t.Fatal("wake of an active worker not flagged")
	}

	c = New(Options{Cores: 4, Programs: 2, Policy: rt.DWS})
	c.Observe(trace.Event{Kind: trace.Sleep, Prog: 1, Core: 0, Release: true})
	c.Observe(trace.Event{Kind: trace.Sleep, Prog: 1, Core: 0, Release: true})
	if !hasViolation(c, "sleep-wake-alternation") {
		t.Fatal("double sleep not flagged")
	}

	// Legal alternation, including the DWS initial state: non-home worker
	// 3 of p1 starts asleep, so its first event may be a wake.
	c = New(Options{Cores: 4, Programs: 2, Policy: rt.DWS})
	c.Observe(trace.Event{Kind: trace.Sleep, Prog: 1, Core: 0, Release: true})
	c.Observe(trace.Event{Kind: trace.Wake, Prog: 1, Core: 0})
	c.Observe(trace.Event{Kind: trace.Wake, Prog: 1, Core: 3})
	c.Observe(trace.Event{Kind: trace.Sleep, Prog: 1, Core: 3, Release: true})
	if err := c.Err(); err != nil {
		t.Fatalf("legal alternation flagged: %v", err)
	}
}

func TestCheckerReclaimTargets(t *testing.T) {
	c := New(Options{Cores: 4, Programs: 2, Policy: rt.DWS})
	// p1's home is {0,1}; reclaiming core 3 is out of its block.
	c.Observe(trace.Event{Kind: trace.Reclaim, Prog: 1, Core: 3, Victim: 2})
	if !hasViolation(c, "reclaim-home-only") {
		t.Fatal("reclaim outside the home block not flagged")
	}

	c = New(Options{Cores: 4, Programs: 2, Policy: rt.DWS})
	c.Observe(trace.Event{Kind: trace.Reclaim, Prog: 1, Core: 0, Victim: 1})
	if !hasViolation(c, "reclaim-victim") {
		t.Fatal("self-victim reclaim not flagged")
	}

	c = New(Options{Cores: 4, Programs: 2, Policy: rt.DWS})
	c.Observe(trace.Event{Kind: trace.Claim, Prog: 2, Core: 0})
	c.Observe(trace.Event{Kind: trace.Reclaim, Prog: 1, Core: 0, Victim: 2})
	if err := c.Err(); err != nil {
		t.Fatalf("legal reclaim flagged: %v", err)
	}
}

func TestCheckerLeaseEpochMonotone(t *testing.T) {
	c := New(Options{Cores: 4, Programs: 2, Policy: rt.DWS})
	c.Observe(trace.Event{Kind: trace.Join, Prog: 1, Core: -1, Epoch: 2})
	c.Observe(trace.Event{Kind: trace.Join, Prog: 1, Core: -1, Epoch: 2})
	if !hasViolation(c, "lease-epoch-monotone") {
		t.Fatal("non-increasing join epoch not flagged")
	}

	c = New(Options{Cores: 4, Programs: 2, Policy: rt.DWS})
	c.Observe(trace.Event{Kind: trace.Join, Prog: 1, Core: -1, Epoch: 1})
	// A sweep must never see a generation newer than the last join.
	c.Observe(trace.Event{Kind: trace.Sweep, Prog: 2, Core: -1, Victim: 1, Epoch: 5})
	if !hasViolation(c, "lease-epoch-monotone") {
		t.Fatal("sweep of a future epoch not flagged")
	}

	c = New(Options{Cores: 4, Programs: 2, Policy: rt.DWS})
	c.Observe(trace.Event{Kind: trace.Join, Prog: 1, Core: -1, Epoch: 1})
	c.Observe(trace.Event{Kind: trace.Sweep, Prog: 2, Core: -1, Victim: 1, Epoch: 1})
	c.Observe(trace.Event{Kind: trace.Join, Prog: 1, Core: -1, Epoch: 2})
	if err := c.Err(); err != nil {
		t.Fatalf("legal join/sweep/rejoin flagged: %v", err)
	}
}

func TestCheckerTaskConservation(t *testing.T) {
	c := New(Options{Cores: 4, Programs: 1, Policy: rt.DWS})
	c.Observe(trace.Event{Kind: trace.RunDone, Prog: 1, Core: -1, Spawned: 5, Executed: 4})
	if !hasViolation(c, "task-conservation") {
		t.Fatal("spawned != executed at a run boundary not flagged")
	}

	c = New(Options{Cores: 4, Programs: 1, Policy: rt.DWS})
	c.Observe(trace.Event{Kind: trace.RunDone, Prog: 1, Core: -1, Spawned: 5, Executed: 5})
	c.Observe(trace.Event{Kind: trace.RunDone, Prog: 1, Core: -1, Spawned: 3, Executed: 3})
	if !hasViolation(c, "task-conservation") {
		t.Fatal("regressing cumulative counters not flagged")
	}

	c = New(Options{Cores: 4, Programs: 1, Policy: rt.DWS})
	c.Observe(trace.Event{Kind: trace.RunDone, Prog: 1, Core: -1, Spawned: 5, Executed: 5})
	c.Observe(trace.Event{Kind: trace.RunDone, Prog: 1, Core: -1, Spawned: 9, Executed: 9})
	if err := c.Err(); err != nil {
		t.Fatalf("legal conservation flagged: %v", err)
	}
}

func TestCheckerCoordTickBounds(t *testing.T) {
	tick := func(nb, na, nw, nf, nr, woken, claimed, reclaimed int) trace.Event {
		return trace.Event{Kind: trace.CoordTick, Prog: 1, Core: -1,
			NB: nb, NA: na, NW: nw, NF: nf, NR: nr,
			Woken: woken, Claimed: claimed, Reclaimed: reclaimed}
	}
	cases := []struct {
		name string
		ev   trace.Event
		want bool // expect a three-case-rule violation (non-strict checker)
	}{
		{"nw-formula", tick(8, 2, 3, 0, 0, 0, 0, 0), true},       // 8/2 = 4, not 3
		{"nw-all-when-idle", tick(5, 0, 4, 0, 0, 0, 0, 0), true}, // N_a = 0 → N_w = N_b
		{"overwake", tick(4, 2, 2, 3, 0, 3, 3, 0), true},
		{"overclaim", tick(4, 2, 2, 1, 0, 1, 2, 0), true},
		{"overreclaim", tick(4, 2, 2, 0, 1, 1, 0, 2), true},
		{"wake-without-core", tick(4, 2, 2, 1, 0, 2, 1, 0), true}, // DWS: woke 2, took 1
		{"legal-case1", tick(4, 2, 2, 2, 0, 2, 2, 0), false},
		{"legal-case23", tick(6, 2, 3, 1, 2, 3, 1, 2), false},
		{"legal-starved", tick(6, 2, 3, 0, 0, 0, 0, 0), false}, // nothing to take
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := New(Options{Cores: 4, Programs: 2, Policy: rt.DWS})
			c.Observe(tc.ev)
			if got := hasViolation(c, "three-case-rule"); got != tc.want {
				t.Fatalf("violation = %v, want %v (violations: %v)",
					got, tc.want, c.Violations())
			}
		})
	}
}

func TestCheckerStrictExactWakeCount(t *testing.T) {
	// The under-waking signature of a coordinator that skips the reclaim
	// cases: N_f = 0, N_r > 0, demand present, nothing woken. The lenient
	// checker accepts it; Strict must not.
	ev := trace.Event{Kind: trace.CoordTick, Prog: 1, Core: -1,
		NB: 6, NA: 1, NW: 6, NF: 0, NR: 1}
	lenient := New(Options{Cores: 4, Programs: 2, Policy: rt.DWS})
	lenient.Observe(ev)
	if err := lenient.Err(); err != nil {
		t.Fatalf("lenient checker flagged the under-waking tick: %v", err)
	}
	strict := New(Options{Cores: 4, Programs: 2, Policy: rt.DWS, Strict: true})
	strict.Observe(ev)
	if !hasViolation(strict, "three-case-rule") {
		t.Fatal("strict checker missed Woken=0 with min(N_w, N_f+N_r)=1")
	}
}

func TestCheckerStrictOccupancy(t *testing.T) {
	c := New(Options{Cores: 4, Programs: 2, Policy: rt.DWS, StrictOccupancy: true})
	c.Observe(trace.Event{Kind: trace.Claim, Prog: 1, Core: 0})
	c.Observe(trace.Event{Kind: trace.Claim, Prog: 2, Core: 0})
	if !hasViolation(c, "occupancy-transition") {
		t.Fatal("claim of an occupied core not flagged")
	}

	c = New(Options{Cores: 4, Programs: 2, Policy: rt.DWS, StrictOccupancy: true})
	c.Observe(trace.Event{Kind: trace.Claim, Prog: 1, Core: 0})
	c.Observe(trace.Event{Kind: trace.Release, Prog: 2, Core: 0})
	if !hasViolation(c, "occupancy-transition") {
		t.Fatal("release by a non-owner not flagged")
	}

	c = New(Options{Cores: 4, Programs: 2, Policy: rt.DWS, StrictOccupancy: true})
	c.Observe(trace.Event{Kind: trace.Claim, Prog: 1, Core: 0})
	c.Observe(trace.Event{Kind: trace.Join, Prog: 1, Core: -1, Epoch: 1})
	c.Observe(trace.Event{Kind: trace.Sweep, Prog: 2, Core: -1, Victim: 1, Epoch: 1, Cores: 2})
	if !hasViolation(c, "occupancy-transition") {
		t.Fatal("sweep freed-core count mismatch not flagged")
	}
}

func TestCheckerCheckpoint(t *testing.T) {
	c := New(Options{Cores: 4, Programs: 2, Policy: rt.DWS})
	c.Observe(trace.Event{Kind: trace.Claim, Prog: 1, Core: 0})
	if got := c.Checkpoint([]int32{1, 0, 0, 0}); len(got) != 0 {
		t.Fatalf("matching checkpoint reported %v", got)
	}
	if !c.InSync([]int32{1, 0, 0, 0}) {
		t.Fatal("InSync false on a matching snapshot")
	}
	if c.InSync([]int32{2, 0, 0, 0}) {
		t.Fatal("InSync true on a mismatching snapshot")
	}
	got := c.Checkpoint([]int32{2, 0, 0, 0})
	if len(got) != 1 || got[0].Invariant != "occupancy-checkpoint" {
		t.Fatalf("mismatching checkpoint reported %v", got)
	}
}

func TestCheckerArtifactJSONL(t *testing.T) {
	c := New(Options{Cores: 4, Programs: 2, Policy: rt.DWS, KeepEvents: true})
	c.Observe(trace.Event{Kind: trace.Claim, Prog: 1, Core: 0})
	c.Observe(trace.Event{Kind: trace.Reclaim, Prog: 1, Core: 3, Victim: 2}) // violation
	var buf bytes.Buffer
	if err := c.WriteJSONL(&buf); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 { // 2 events + 1 violation
		t.Fatalf("artifact has %d lines, want 3:\n%s", len(lines), buf.String())
	}
	if !strings.Contains(lines[2], `"reclaim-home-only"`) {
		t.Fatalf("violation line missing invariant name: %s", lines[2])
	}
}

// --- The orchestrated live scenario: sleep → coordinator wake → reclaim,
// driven entirely by a fake clock and gates so every phase transition is a
// deterministic milestone. Run with the fault injected, the strict checker
// must catch the missing reclaim; run clean, it must stay silent. ---------

const scenarioPeriod = 5 * time.Millisecond

// reclaimScenario drives two DWS programs on 4 cores through a fixed
// exchange: A's idle home worker parks and releases its core, B borrows
// it, then A's demand spikes and its coordinator must reclaim the core
// (§3.3 case 2). It returns the checker and the canonical milestone trail.
func reclaimScenario(t *testing.T, fault bool) (*Checker, []string) {
	t.Helper()
	fake := vclock.NewFake()
	ck := New(Options{Cores: 4, Programs: 2, Policy: rt.DWS, Strict: true})
	sys, err := rt.NewSystem(rt.Config{
		Cores: 4, Programs: 2, Policy: rt.DWS,
		TSleep: 2, CoordPeriod: scenarioPeriod,
		Clock: fake, Observer: ck.Observe,
		FaultSkipReclaim: fault,
	})
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	a, err := sys.NewProgram("A") // table ID 1, home {0, 1}
	if err != nil {
		t.Fatalf("NewProgram(A): %v", err)
	}
	b, err := sys.NewProgram("B") // table ID 2, home {2, 3}
	if err != nil {
		t.Fatalf("NewProgram(B): %v", err)
	}

	var milestones []string
	mark := func(m string) { milestones = append(milestones, m) }

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
	// waitTicks advances the fake clock one coordinator period at a time
	// until cond holds; the condition only ever flips on a coordinator
	// pass, so real time plays no part in when it is reached.
	waitTicks := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out advancing for %s (table %v, violations %v)",
					what, sys.Occupants(), ck.Violations())
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

	// Phase 0 — quiesce: with no work and the clock frozen, every home
	// worker parks voluntarily (T_SLEEP failed steals) and releases its
	// core. Park needs no clock, only real scheduling.
	waitFor("initial quiesce", func() bool {
		return a.Stats().Sleeps == 2 && b.Stats().Sleeps == 2 && allFree()
	})
	mark("quiesce")

	// Phase 1 — A runs a root that blocks before producing work: exactly
	// one home worker holds the root (Sync never parks the holder), the
	// other finds nothing to steal and parks again, releasing its core.
	gateRoot := make(chan struct{})
	gateA := make(chan struct{})
	aDone := make(chan error, 1)
	go func() {
		aDone <- a.Run(func(c *rt.Ctx) {
			<-gateRoot
			for i := 0; i < 8; i++ {
				c.Spawn(func(*rt.Ctx) { <-gateA })
			}
		})
	}()
	var borrowed = -1
	waitFor("A's idle home worker to release its core", func() bool {
		if a.Stats().Sleeps != 3 {
			return false
		}
		occ := sys.Occupants()
		for _, c := range []int{0, 1} {
			if occ[c] == 0 {
				borrowed = c
				return true
			}
		}
		return false
	})
	mark("run-a")
	mark("home-core-released")

	// Phase 2 — B runs wide gated work; its coordinator's next pass sees
	// the free core (case 1) and claims it: B now borrows A's home core.
	gateB := make(chan struct{})
	bDone := make(chan error, 1)
	go func() {
		bDone <- b.Run(func(c *rt.Ctx) {
			for i := 0; i < 8; i++ {
				c.Spawn(func(*rt.Ctx) { <-gateB })
			}
		})
	}()
	waitTicks("B to borrow A's released core", func() bool {
		return sys.Occupants()[borrowed] == 2
	})
	mark("b-borrows")

	// Phase 3 — A's demand spikes: the root spawns 8 tasks. The next
	// coordinator pass observes N_f = 0, N_r = 1 and — unless the fault is
	// injected — must reclaim the borrowed core and wake its worker.
	close(gateRoot)
	if fault {
		waitTicks("the strict checker to catch the skipped reclaim", func() bool {
			return len(ck.Violations()) > 0
		})
		if got := sys.Occupants()[borrowed]; got != 2 {
			t.Fatalf("faulty coordinator still moved core %d (occupant p%d)", borrowed, got)
		}
		mark("fault-caught")
	} else {
		waitTicks("A to reclaim its borrowed home core", func() bool {
			return sys.Occupants()[borrowed] == 1
		})
		mark("reclaimed")
	}

	// Phase 4 — open every gate, let both runs drain, and settle back to
	// an all-free table.
	close(gateA)
	close(gateB)
	for _, ch := range []chan error{aDone, bDone} {
		select {
		case err := <-ch:
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("run did not complete after gates opened")
		}
	}
	mark("runs-done")
	// A clean run's borrower must also have acted on its eviction: the
	// table can read all free while B's worker is still finishing its last
	// task, and Close would then end it before it sees the flag.
	waitFor("final quiesce", func() bool {
		return allFree() && ck.InSync(sys.Occupants()) && (fault || ck.Count(trace.Evict) >= 1)
	})
	if extra := ck.Checkpoint(sys.Occupants()); len(extra) != 0 {
		t.Fatalf("final checkpoint mismatch: %v", extra)
	}
	mark("checkpoint-clean")

	// Teardown: everything is parked, so Close's first wake sweep suffices
	// and the frozen clock never needs to fire the retry timer. The pump
	// is insurance against a worker racing into park at the wrong moment.
	closed := make(chan struct{})
	go func() { sys.Close(); close(closed) }()
	for {
		select {
		case <-closed:
			return ck, milestones
		default:
			fake.Advance(time.Millisecond)
			time.Sleep(50 * time.Microsecond)
		}
	}
}

// TestReclaimScenarioDeterministic is the virtual-clock determinism
// acceptance test: the full sleep → coordinator-wake → reclaim exchange
// runs against a frozen clock, finishes fast, yields a bit-identical
// milestone trail on every execution, exactly one reclaim, and zero
// invariant violations. Run it with -count=100 -race to check stability.
func TestReclaimScenarioDeterministic(t *testing.T) {
	start := time.Now()
	ck, milestones := reclaimScenario(t, false)
	elapsed := time.Since(start)

	const want = "quiesce,run-a,home-core-released,b-borrows,reclaimed,runs-done,checkpoint-clean"
	if got := strings.Join(milestones, ","); got != want {
		t.Fatalf("milestone trail diverged:\n got %s\nwant %s", got, want)
	}
	if err := ck.Err(); err != nil {
		t.Fatalf("clean run violated invariants: %v", err)
	}
	if n := ck.Count(trace.Reclaim); n != 1 {
		t.Fatalf("observed %d reclaims, want exactly 1", n)
	}
	if ck.Count(trace.Evict) < 1 {
		t.Fatal("the borrower was never evicted from the reclaimed core")
	}
	t.Logf("scenario completed in %v", elapsed)
	if elapsed > 100*time.Millisecond {
		t.Errorf("scenario took %v, want < 100ms under the fake clock", elapsed)
	}
}

// TestFaultSkipReclaimCaught is the fault-injection acceptance test: a
// coordinator that silently skips the §3.3 reclaim cases must be caught by
// the strict three-case assertion — not by a timing-dependent flake.
func TestFaultSkipReclaimCaught(t *testing.T) {
	ck, milestones := reclaimScenario(t, true)

	const want = "quiesce,run-a,home-core-released,b-borrows,fault-caught,runs-done,checkpoint-clean"
	if got := strings.Join(milestones, ","); got != want {
		t.Fatalf("milestone trail diverged:\n got %s\nwant %s", got, want)
	}
	vs := ck.Violations()
	if len(vs) == 0 {
		t.Fatal("injected skip-reclaim fault produced no violations")
	}
	onlyViolations(t, ck, "three-case-rule")
	if !strings.Contains(vs[0].Detail, "want min(") {
		t.Fatalf("violation is not the under-waking signature: %s", vs[0])
	}
	if n := ck.Count(trace.Reclaim); n != 0 {
		t.Fatalf("faulty coordinator still reclaimed %d cores", n)
	}
}
