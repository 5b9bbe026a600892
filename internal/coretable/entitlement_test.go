package coretable

import (
	"reflect"
	"sync"
	"testing"
)

// entitledCores expands EntitledBlock into the block's core list: nil
// while unarbitrated, empty but non-nil for a zero-size block.
func entitledCores(tb *Table, idx int) []int {
	start, size, ok := tb.EntitledBlock(idx)
	if !ok {
		return nil
	}
	cores := make([]int, size)
	for i := range cores {
		cores[i] = start + i
	}
	return cores
}

func TestEntitlementsStartUnarbitrated(t *testing.T) {
	tb := NewMem(8)
	if got := tb.EntitlementEpoch(); got != 0 {
		t.Fatalf("fresh table entitlement epoch = %d, want 0", got)
	}
	if got := entitledCores(tb, 3); got != nil {
		t.Fatalf("entitled cores on unarbitrated table = %v, want nil", got)
	}
	for pid := int32(1); pid <= 8; pid++ {
		if got := tb.Entitlement(pid); got != 0 {
			t.Fatalf("fresh entitlement for p%d = %d, want 0", pid, got)
		}
	}
}

func TestSetEntitlementsPublishAndDerive(t *testing.T) {
	tb := NewMem(8)
	ep, ok := tb.SetEntitlements([]int32{5, 3, 0, 0, 0, 0, 0, 0}, 0)
	if !ok || ep != 1 {
		t.Fatalf("publish = (%d, %v), want (1, true)", ep, ok)
	}
	if got := tb.Entitlement(1); got != 5 {
		t.Fatalf("p1 entitlement = %d, want 5", got)
	}
	if got := entitledCores(tb, 0); !reflect.DeepEqual(got, []int{0, 1, 2, 3, 4}) {
		t.Fatalf("slot 0 entitled cores = %v", got)
	}
	if got := entitledCores(tb, 1); !reflect.DeepEqual(got, []int{5, 6, 7}) {
		t.Fatalf("slot 1 entitled cores = %v", got)
	}
	if got := entitledCores(tb, 2); len(got) != 0 || got == nil {
		t.Fatalf("slot 2 entitled cores = %v, want empty non-nil", got)
	}
	if got := tb.Entitlements(); !reflect.DeepEqual(got, []int32{5, 3, 0, 0, 0, 0, 0, 0}) {
		t.Fatalf("Entitlements() = %v", got)
	}
}

// A publisher that computed against a stale epoch must abort without
// writing anything — exactly one of two racing publishers wins.
func TestSetEntitlementsStaleEpochAborts(t *testing.T) {
	tb := NewMem(4)
	if _, ok := tb.SetEntitlements([]int32{2, 2, 0, 0}, 0); !ok {
		t.Fatal("first publish rejected")
	}
	ep, ok := tb.SetEntitlements([]int32{4, 0, 0, 0}, 0) // stale prevEpoch
	if ok {
		t.Fatal("stale publish accepted")
	}
	if ep != 1 {
		t.Fatalf("stale publish reported epoch %d, want 1", ep)
	}
	if got := tb.Entitlements(); !reflect.DeepEqual(got, []int32{2, 2, 0, 0}) {
		t.Fatalf("stale publish wrote values: %v", got)
	}
	if _, ok := tb.SetEntitlements([]int32{4, 0, 0, 0}, 1); !ok {
		t.Fatal("retry at fresh epoch rejected")
	}
	if got := tb.EntitlementEpoch(); got != 2 {
		t.Fatalf("epoch after retry = %d, want 2", got)
	}
}

func TestSetEntitlementsRejectsOverSum(t *testing.T) {
	tb := NewMem(4)
	defer func() {
		if recover() == nil {
			t.Fatal("sum > k accepted")
		}
	}()
	tb.SetEntitlements([]int32{3, 2, 0, 0}, 0)
}

func TestSetEntitlementsRejectsBadLength(t *testing.T) {
	tb := NewMem(4)
	defer func() {
		if recover() == nil {
			t.Fatal("wrong-length vector accepted")
		}
	}()
	tb.SetEntitlements([]int32{4}, 0)
}

// Racing publishers at the same prevEpoch: exactly one wins per epoch,
// the final vector is one of the proposals, and concurrent readers only
// ever see per-slot values in [0, k] with derived blocks inside [0, k) —
// mid-publish a slot-at-a-time snapshot may legitimately mix old and new
// entries (and so transiently over-count; see the package comment), but a
// quiescent snapshot must sum to ≤ k.
func TestSetEntitlementsConcurrent(t *testing.T) {
	const k = 8
	tb := NewMem(k)
	proposals := [][]int32{
		{8, 0, 0, 0, 0, 0, 0, 0},
		{4, 4, 0, 0, 0, 0, 0, 0},
		{1, 1, 1, 1, 1, 1, 1, 1},
		{0, 0, 0, 0, 0, 0, 4, 4},
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(2)
	for r := 0; r < 2; r++ {
		go func(idx int) {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i, e := range tb.Entitlements() {
					if e < 0 || e > k {
						t.Errorf("slot %d entitlement %d outside [0,%d]", i, e, k)
						return
					}
				}
				for _, c := range entitledCores(tb, idx) {
					if c < 0 || c >= k {
						t.Errorf("derived core %d outside [0,%d)", c, k)
						return
					}
				}
			}
		}(r)
	}
	var wg sync.WaitGroup
	wins := make([]int, len(proposals))
	for round := 0; round < 200; round++ {
		prev := tb.EntitlementEpoch()
		for i, p := range proposals {
			wg.Add(1)
			go func(i int, p []int32) {
				defer wg.Done()
				if _, ok := tb.SetEntitlements(p, prev); ok {
					wins[i]++ // wg.Wait() orders these writes
				}
			}(i, p)
		}
		wg.Wait()
		if got := tb.EntitlementEpoch(); got != prev+1 {
			t.Fatalf("round %d: epoch = %d, want %d (exactly one winner)", round, got, prev+1)
		}
		sum := int32(0)
		for _, e := range tb.Entitlements() {
			sum += e
		}
		if sum > k {
			t.Fatalf("round %d: quiescent snapshot sums to %d > %d", round, sum, k)
		}
	}
	close(stop)
	readers.Wait()
	total := 0
	for _, w := range wins {
		total += w
	}
	if total != 200 {
		t.Fatalf("total wins = %d, want 200", total)
	}
	final := tb.Entitlements()
	found := false
	for _, p := range proposals {
		if reflect.DeepEqual(final, p) {
			found = true
		}
	}
	if !found {
		t.Fatalf("final vector %v is not one of the proposals (torn write)", final)
	}
}

func TestResetClearsEntitlements(t *testing.T) {
	tb := NewMem(4)
	tb.SetEntitlements([]int32{2, 2, 0, 0}, 0)
	tb.Reset()
	if got := tb.EntitlementEpoch(); got != 0 {
		t.Fatalf("epoch after Reset = %d, want 0", got)
	}
	if got := entitledCores(tb, 0); got != nil {
		t.Fatalf("entitled cores after Reset = %v, want nil (static fallback)", got)
	}
}
