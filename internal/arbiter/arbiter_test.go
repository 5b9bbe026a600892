package arbiter

import (
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"dws/internal/coretable"
	"dws/internal/topo"
)

func newArb(t *testing.T, k int, cfg Config) (*Arbiter, *coretable.Table) {
	t.Helper()
	cfg.Cores = k
	tb := coretable.NewMem(k)
	return New(cfg, tb), tb
}

func saturated(pid int32, weight float64) Input {
	return Input{PID: pid, Weight: weight, NB: 8, NA: 4}
}

// Equal weights with every program active must reproduce the paper's
// static split exactly — HomeCores block sizes in slot order.
func TestEqualWeightsDegeneratesToHomeCores(t *testing.T) {
	for _, tc := range []struct{ k, m int }{{16, 2}, {10, 3}, {4, 3}, {8, 8}} {
		arb, tb := newArb(t, tc.k, Config{})
		var inputs []Input
		for pid := 1; pid <= tc.m; pid++ {
			inputs = append(inputs, saturated(int32(pid), 1))
		}
		decisions := arb.Tick(inputs)
		if decisions == nil {
			t.Fatalf("k=%d m=%d: first tick did not publish", tc.k, tc.m)
		}
		for idx := 0; idx < tc.m; idx++ {
			want := len(coretable.HomeCores(tc.k, tc.m, idx))
			if got := tb.Entitlement(int32(idx + 1)); int(got) != want {
				t.Fatalf("k=%d m=%d: p%d entitlement = %d, want HomeCores size %d",
					tc.k, tc.m, idx+1, got, want)
			}
			if got := Home(tb, topo.Flat(tc.k), idx, nil, false, new([]int)); !reflect.DeepEqual(got, coretable.HomeCores(tc.k, tc.m, idx)) {
				t.Fatalf("k=%d m=%d: slot %d entitled cores %v != HomeCores %v",
					tc.k, tc.m, idx, got, coretable.HomeCores(tc.k, tc.m, idx))
			}
		}
		if decisions[0].Trigger != TriggerInit {
			t.Fatalf("first publish trigger = %q, want %q", decisions[0].Trigger, TriggerInit)
		}
	}
}

func TestWeightedSplit(t *testing.T) {
	arb, tb := newArb(t, 8, Config{})
	arb.Tick([]Input{saturated(1, 2), saturated(2, 1)})
	if a, b := tb.Entitlement(1), tb.Entitlement(2); a != 5 || b != 3 {
		t.Fatalf("2:1 weights on 8 cores = (%d, %d), want (5, 3)", a, b)
	}
}

// A steady-state demand change must survive hysteresis (2) consecutive
// ticks before publishing; a blip that reverts must not publish at all.
func TestHysteresis(t *testing.T) {
	arb, tb := newArb(t, 8, Config{})
	equal := []Input{saturated(1, 1), saturated(2, 1)}
	arb.Tick(equal) // init publish: [4 4]
	if got := tb.EntitlementEpoch(); got != 1 {
		t.Fatalf("epoch after init = %d", got)
	}

	weighted := []Input{saturated(1, 3), saturated(2, 1)}
	if d := arb.Tick(weighted); d != nil {
		t.Fatal("weight change published without hysteresis")
	}
	if got := tb.Entitlement(1); got != 4 {
		t.Fatalf("entitlement moved during hysteresis: %d", got)
	}
	d := arb.Tick(weighted)
	if d == nil {
		t.Fatal("second consecutive proposal did not publish")
	}
	if d[0].Trigger != TriggerWeight {
		t.Fatalf("trigger = %q, want %q", d[0].Trigger, TriggerWeight)
	}
	if a, b := tb.Entitlement(1), tb.Entitlement(2); a != 6 || b != 2 {
		t.Fatalf("3:1 weights on 8 cores = (%d, %d), want (6, 2)", a, b)
	}

	// A one-tick blip back to equal then weighted again must not publish.
	if d := arb.Tick(equal); d != nil {
		t.Fatal("blip published")
	}
	if d := arb.Tick(weighted); d != nil {
		t.Fatal("reverted blip published")
	}
	if got := tb.EntitlementEpoch(); got != 2 {
		t.Fatalf("epoch after blip = %d, want 2", got)
	}
}

// A program whose demand signal decays to idle loses its entitlement to
// the active programs (its floor drops to 0), and reclaims it within a
// couple of ticks of waking up.
func TestIdleRedistribution(t *testing.T) {
	arb, tb := newArb(t, 8, Config{})
	both := []Input{saturated(1, 1), saturated(2, 1)}
	arb.Tick(both)

	oneIdle := []Input{saturated(1, 1), {PID: 2, Weight: 1, NB: 0, NA: 0}}
	for i := 0; i < 40 && tb.Entitlement(2) != 0; i++ {
		arb.Tick(oneIdle)
	}
	if a, b := tb.Entitlement(1), tb.Entitlement(2); a != 8 || b != 0 {
		t.Fatalf("after idle decay = (%d, %d), want (8, 0)", a, b)
	}

	for i := 0; i < 10 && tb.Entitlement(2) == 0; i++ {
		arb.Tick(both)
	}
	if a, b := tb.Entitlement(1), tb.Entitlement(2); a != 4 || b != 4 {
		t.Fatalf("after wake-up = (%d, %d), want (4, 4)", a, b)
	}
}

// When every program reads idle (between runs), entitlements must not
// collapse: all are treated as active and the split stays put.
func TestAllIdleKeepsSplit(t *testing.T) {
	arb, tb := newArb(t, 8, Config{})
	arb.Tick([]Input{saturated(1, 1), saturated(2, 1)})
	idle := []Input{{PID: 1, Weight: 1}, {PID: 2, Weight: 1}}
	for i := 0; i < 40; i++ {
		arb.Tick(idle)
	}
	if a, b := tb.Entitlement(1), tb.Entitlement(2); a != 4 || b != 4 {
		t.Fatalf("all-idle split = (%d, %d), want (4, 4)", a, b)
	}
}

// SLO pressure (queue wait above the target) boosts a tenant's score and
// shifts cores toward it, capped by SLOBoostMax.
func TestSLOBoost(t *testing.T) {
	arb, tb := newArb(t, 8, Config{})
	calm := []Input{
		{PID: 1, Weight: 1, SLO: 10 * time.Millisecond, NB: 8, NA: 4},
		saturated(2, 1),
	}
	arb.Tick(calm)
	if a, b := tb.Entitlement(1), tb.Entitlement(2); a != 4 || b != 4 {
		t.Fatalf("no-pressure split = (%d, %d), want (4, 4)", a, b)
	}

	pressured := []Input{
		{PID: 1, Weight: 1, SLO: 10 * time.Millisecond, NB: 8, NA: 4, QueueWait: 100 * time.Millisecond},
		saturated(2, 1),
	}
	var last []Decision
	for i := 0; i < 20; i++ {
		if d := arb.Tick(pressured); d != nil {
			last = d
		}
	}
	if a, b := tb.Entitlement(1), tb.Entitlement(2); a <= b {
		t.Fatalf("SLO pressure did not shift cores: (%d, %d)", a, b)
	}
	// Boost is capped at SLOBoostMax (default 2): score ≤ 2, so the split
	// can reach at most the 2:1 apportionment (5, 3).
	if a := tb.Entitlement(1); a > 5 {
		t.Fatalf("boost exceeded cap: entitlement %d", a)
	}
	found := false
	for _, d := range last {
		if d.PID == 1 {
			found = true
			if d.Trigger != TriggerSLO {
				t.Fatalf("trigger = %q, want %q", d.Trigger, TriggerSLO)
			}
			if d.Score <= d.Weight {
				t.Fatalf("score %v not boosted above weight %v", d.Score, d.Weight)
			}
		}
	}
	if !found {
		t.Fatal("no decision row for the pressured tenant")
	}
}

// The injected "ignore weights" fault publishes an equal split while the
// decisions still report the true scores — exactly the mismatch the
// schedcheck apportionment invariant detects.
func TestFaultIgnoreWeights(t *testing.T) {
	arb, tb := newArb(t, 8, Config{FaultIgnoreWeights: true})
	d := arb.Tick([]Input{saturated(1, 3), saturated(2, 1)})
	if d == nil {
		t.Fatal("no publish")
	}
	if a, b := tb.Entitlement(1), tb.Entitlement(2); a != 4 || b != 4 {
		t.Fatalf("faulty arbiter published (%d, %d), want equal (4, 4)", a, b)
	}
	scores := make([]float64, 8)
	floors := make([]int32, 8)
	for _, row := range d {
		scores[row.PID-1] = row.Score
		floors[row.PID-1] = row.Floor
	}
	honest := Apportion(8, scores, floors)
	if reflect.DeepEqual(honest, tb.Entitlements()) {
		t.Fatal("fault not observable: published vector matches honest apportionment")
	}
}

// Membership changes publish immediately (no hysteresis) with the right
// trigger, and a leave zeroes the leaver's entitlement.
func TestJoinLeaveTriggers(t *testing.T) {
	arb, tb := newArb(t, 8, Config{})
	arb.Tick([]Input{saturated(1, 1)})
	if got := tb.Entitlement(1); got != 8 {
		t.Fatalf("solo entitlement = %d, want 8", got)
	}
	d := arb.Tick([]Input{saturated(1, 1), saturated(2, 1)})
	if d == nil || d[0].Trigger != TriggerJoin {
		t.Fatalf("join publish = %+v, want immediate %q", d, TriggerJoin)
	}
	if a, b := tb.Entitlement(1), tb.Entitlement(2); a != 4 || b != 4 {
		t.Fatalf("post-join split = (%d, %d)", a, b)
	}
	d = arb.Tick([]Input{saturated(2, 1)})
	if d == nil || d[0].Trigger != TriggerLeave {
		t.Fatalf("leave publish = %+v, want immediate %q", d, TriggerLeave)
	}
	if a, b := tb.Entitlement(1), tb.Entitlement(2); a != 0 || b != 8 {
		t.Fatalf("post-leave split = (%d, %d), want (0, 8)", a, b)
	}
	if arb.Changes() == 0 {
		t.Fatal("Changes counter did not advance")
	}
}

// If another publisher wins the epoch race (multi-process), Tick resyncs
// from the table instead of publishing over it.
func TestStaleEpochResync(t *testing.T) {
	arb, tb := newArb(t, 4, Config{})
	arb.Tick([]Input{saturated(1, 1), saturated(2, 1)})
	// A rival publisher bumps the epoch behind the arbiter's back.
	if _, ok := tb.SetEntitlements([]int32{1, 3, 0, 0}, tb.EntitlementEpoch()); !ok {
		t.Fatal("rival publish failed")
	}
	// The changed proposal waits out the hysteresis; its publish then
	// loses to the rival's epoch and resyncs.
	weighted := []Input{saturated(1, 3), saturated(2, 1)}
	for i := 0; i < hysteresis; i++ {
		if d := arb.Tick(weighted); d != nil {
			t.Fatal("published over a rival's epoch")
		}
	}
	if a, b := arb.Epoch(), tb.EntitlementEpoch(); a != b {
		t.Fatalf("arbiter epoch %d not resynced to the table's %d", a, b)
	}
	// After the resync the proposal waits out the hysteresis again.
	for i := 1; i < hysteresis; i++ {
		if d := arb.Tick(weighted); d != nil {
			t.Fatalf("published %d tick(s) after resync, inside the hysteresis", i)
		}
	}
	d := arb.Tick(weighted)
	if d == nil {
		t.Fatal("did not publish after resync")
	}
	if a, b := tb.Entitlement(1), tb.Entitlement(2); a != 3 || b != 1 {
		t.Fatalf("post-resync split = (%d, %d), want (3, 1)", a, b)
	}
}

func TestApportionProperties(t *testing.T) {
	f := func(kRaw uint8, scoresRaw []uint8) bool {
		k := int(kRaw%32) + 1
		scores := make([]float64, k)
		active := make([]bool, k)
		weights := make([]float64, k)
		any := false
		for i := range scores {
			if i < len(scoresRaw) && scoresRaw[i] > 0 {
				scores[i] = float64(scoresRaw[i])
				weights[i] = scores[i]
				active[i] = true
				any = true
			}
		}
		floors := Floors(k, weights, active, 0.5)
		ents := Apportion(k, scores, floors)
		sum := int32(0)
		for i, e := range ents {
			if e < 0 {
				return false
			}
			if e < floors[i] {
				return false
			}
			sum += e
		}
		if any && sum != int32(k) {
			return false
		}
		if !any && sum != 0 {
			return false
		}
		// Determinism: recomputation is bit-identical.
		return reflect.DeepEqual(ents, Apportion(k, scores, floors))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Floors degrade gracefully when infeasible: more active programs than
// cores still yields a ≤ k floor sum, one core per slot while they last.
func TestFloorsInfeasible(t *testing.T) {
	const k = 4
	weights := make([]float64, 8)
	active := make([]bool, 8)
	for i := range weights {
		weights[i], active[i] = 1, true
	}
	floors := Floors(k, weights, active, 0.9)
	sum := int32(0)
	for _, f := range floors {
		sum += f
	}
	if sum > k {
		t.Fatalf("infeasible floors sum to %d > %d: %v", sum, k, floors)
	}
}
