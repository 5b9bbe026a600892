package server

import (
	"testing"
	"time"

	"dws/internal/admit"
)

// admTenant builds a bare tenant wired to an admission queue only — no
// program — for deterministic WFQ-tag tests. It is held busy, as a serve
// holds it, so every job submit admits stays queued.
func admTenant(a *admission, weight float64, runEWMA time.Duration, sizes ...float64) *tenant {
	t := &tenant{flow: a.register(weight), depth: 64, busy: true}
	t.runEWMANanos.Store(int64(runEWMA))
	for _, s := range sizes {
		t.foldSizeEWMA(s)
	}
	return t
}

// TestJobCostEqualSizesBitIdentical is the satellite compatibility pin:
// any run of equal-size jobs must produce exactly the size-blind cost —
// not approximately, bit-for-bit — because the size EWMA of a constant is
// that constant and the multiplier is exactly 1.0.
func TestJobCostEqualSizesBitIdentical(t *testing.T) {
	a := newAdmission(0, false)
	ewma := 137 * time.Millisecond
	for _, size := range []float64{0.1, 0.25, 1.0, 3.7} {
		tn := admTenant(a, 1, ewma)
		for i := 0; i < 50; i++ {
			tn.foldSizeEWMA(size)
		}
		got := a.jobCost(tn, &job{size: size}, ewma)
		if want := ewma.Seconds(); got != want {
			t.Errorf("size %g: cost %v != size-blind %v (must be bit-identical)", size, got, want)
		}
	}
	// No size history at all (size ≤ 0 declared throughout) is also the
	// size-blind path.
	tn := admTenant(a, 1, ewma)
	if got := a.jobCost(tn, &job{size: 0}, ewma); got != ewma.Seconds() {
		t.Errorf("sizeless job cost %v != %v", got, ewma.Seconds())
	}
}

// TestJobCostScalesWithDeclaredSize: against a warm size EWMA, a job
// twice the tenant's usual size costs twice as much, half costs half.
func TestJobCostScalesWithDeclaredSize(t *testing.T) {
	a := newAdmission(0, false)
	ewma := 100 * time.Millisecond
	tn := admTenant(a, 1, ewma, 1.0) // sizeEWMA = 1.0
	base := a.jobCost(tn, &job{size: 1.0}, ewma)
	if got := a.jobCost(tn, &job{size: 2.0}, ewma); got != 2*base {
		t.Errorf("double-size cost %v, want %v", got, 2*base)
	}
	if got := a.jobCost(tn, &job{size: 0.5}, ewma); got != base/2 {
		t.Errorf("half-size cost %v, want %v", got, base/2)
	}
}

// TestJobCostFallbackScales: a history-less tenant charged the server
// fallback still pays proportionally once it has a size EWMA (first jobs
// completed but run EWMA raced to zero cannot happen — but a tenant with
// sizes folded and ewma=0 uses fallback × ratio).
func TestJobCostFallbackScales(t *testing.T) {
	a := newAdmission(0, false)
	a.observeCost(200 * time.Millisecond)
	tn := admTenant(a, 1, 0, 1.0)
	base := a.jobCost(tn, &job{size: 1.0}, 0)
	if base != (200 * time.Millisecond).Seconds() {
		t.Fatalf("fallback cost %v", base)
	}
	if got := a.jobCost(tn, &job{size: 3.0}, 0); got != 3*base {
		t.Errorf("fallback triple-size cost %v, want %v", got, 3*base)
	}
}

// TestMixedSizeFairness drives the global cap: two equal-weight warm
// tenants, one submitting double-size jobs, one unit-size. The big
// tenant's tags grow twice as fast, so when a unit-size arrival hits the
// full queue the shed victim must come from the big tenant's tail — with
// size-blind costing the two flows would be indistinguishable and the
// arrival itself would be refused.
func TestMixedSizeFairness(t *testing.T) {
	a := newAdmission(4, false)
	ewma := 100 * time.Millisecond
	big := admTenant(a, 1, ewma, 1.0)   // declares 2.0 against a 1.0 EWMA
	small := admTenant(a, 1, ewma, 1.0) // declares its usual 1.0
	mkJob := func(size float64) *job {
		return &job{size: size, done: make(chan struct{})}
	}
	for i := 0; i < 2; i++ {
		if v, _, victim := a.submit(big, mkJob(2.0), 0); v != admit.Admitted || victim != nil {
			t.Fatalf("warm-up big submit %d: verdict %v victim %v", i, v, victim)
		}
		if v, _, victim := a.submit(small, mkJob(1.0), 0); v != admit.Admitted || victim != nil {
			t.Fatalf("warm-up small submit %d: verdict %v victim %v", i, v, victim)
		}
	}
	// Queue is at the cap (4). A unit-size arrival from the small tenant
	// is placed better in virtual time than the big tenant's tail.
	v, _, victim := a.submit(small, mkJob(1.0), 0)
	if v != admit.Admitted {
		t.Fatalf("small arrival at cap: verdict %v, want admit.Admitted via shed", v)
	}
	if victim == nil || victim.size != 2.0 {
		t.Fatalf("shed victim %+v, want one of the big tenant's jobs", victim)
	}
	// A further big arrival is itself the worst-placed work: refused.
	if v, _, _ := a.submit(big, mkJob(2.0), 0); v != admit.Overload {
		t.Fatalf("big arrival at cap: verdict %v, want admit.Overload", v)
	}
}
