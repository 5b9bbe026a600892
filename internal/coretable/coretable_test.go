package coretable

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestClaimReleaseBasics(t *testing.T) {
	tb := NewMem(4)
	if tb.K() != 4 {
		t.Fatalf("K = %d", tb.K())
	}
	if !tb.ClaimFree(0, 1) {
		t.Fatal("claim of free core failed")
	}
	if tb.ClaimFree(0, 2) {
		t.Fatal("claim of occupied core succeeded")
	}
	if got := tb.Occupant(0); got != 1 {
		t.Fatalf("Occupant = %d, want 1", got)
	}
	if tb.Release(0, 2) {
		t.Fatal("release by non-occupant succeeded")
	}
	if !tb.Release(0, 1) {
		t.Fatal("release by occupant failed")
	}
	if got := tb.Occupant(0); got != Free {
		t.Fatalf("Occupant = %d, want Free", got)
	}
}

func TestReclaimProtocol(t *testing.T) {
	tb := NewMem(4)
	// p2 borrows core 1 (which is p1's home).
	if !tb.ClaimFree(1, 2) {
		t.Fatal("borrow failed")
	}
	// p1 reclaims.
	if !tb.Reclaim(1, 1, 2) {
		t.Fatal("reclaim failed")
	}
	if got := tb.Occupant(1); got != 1 {
		t.Fatalf("Occupant = %d, want 1", got)
	}
	if !tb.EvictionPending(1) {
		t.Fatal("eviction flag not raised")
	}
	tb.AckEviction(1)
	if tb.EvictionPending(1) {
		t.Fatal("eviction flag not cleared")
	}
	// Reclaim when borrower already left must fail.
	if tb.Reclaim(1, 2, 3) {
		t.Fatal("reclaim from wrong borrower succeeded")
	}
}

func TestReclaimSamePIDPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Reclaim(owner == borrower) did not panic")
		}
	}()
	NewMem(2).Reclaim(0, 1, 1)
}

func TestReleaseClearsEviction(t *testing.T) {
	tb := NewMem(2)
	tb.ClaimFree(0, 2)
	tb.Reclaim(0, 1, 2) // now p1 occupies, eviction pending for p2's worker
	// p1 releasing later must not leave a stale eviction flag behind.
	if !tb.Release(0, 1) {
		t.Fatal("release failed")
	}
	if tb.EvictionPending(0) {
		t.Fatal("stale eviction flag after release")
	}
}

// freeCores lists the cores a Snapshot shows free.
func freeCores(tb *Table) []int {
	var free []int
	for c, occ := range tb.Snapshot() {
		if occ == Free {
			free = append(free, c)
		}
	}
	return free
}

func TestSnapshotAndCounts(t *testing.T) {
	tb := NewMem(6)
	tb.InstallHome([]int{0, 1, 2}, 1)
	tb.InstallHome([]int{3, 4, 5}, 2)
	if n := tb.CountOccupiedBy(1); n != 3 {
		t.Fatalf("CountOccupiedBy(1) = %d", n)
	}
	if free := freeCores(tb); len(free) != 0 {
		t.Fatalf("free cores = %v", free)
	}
	tb.Release(4, 2)
	if free := freeCores(tb); len(free) != 1 || free[0] != 4 {
		t.Fatalf("free cores = %v", free)
	}
	snap := tb.Snapshot()
	want := []int32{1, 1, 1, 2, Free, 2}
	for i := range want {
		if snap[i] != want[i] {
			t.Fatalf("Snapshot = %v, want %v", snap, want)
		}
	}
	tb.Reset()
	if len(freeCores(tb)) != 6 {
		t.Fatal("Reset did not free all cores")
	}
}

func TestStringRendering(t *testing.T) {
	tb := NewMem(3)
	tb.ClaimFree(1, 7)
	if got := tb.String(); got != "cores: - p7 -" {
		t.Fatalf("String = %q", got)
	}
}

func TestBoundsPanic(t *testing.T) {
	tb := NewMem(2)
	for _, fn := range []func(){
		func() { tb.Occupant(2) },
		func() { tb.Occupant(-1) },
		func() { tb.ClaimFree(5, 1) },
		func() { tb.ClaimFree(0, 0) },
		func() { tb.ClaimFree(0, -3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("out-of-range access did not panic")
				}
			}()
			fn()
		}()
	}
}

// TestConcurrentClaimExclusive: many programs race to claim every core;
// each core must end with exactly one occupant and the total number of
// successful claims must equal the core count.
func TestConcurrentClaimExclusive(t *testing.T) {
	const k, progs = 32, 8
	tb := NewMem(k)
	var wg sync.WaitGroup
	wins := make([]int, progs)
	for p := 0; p < progs; p++ {
		wg.Add(1)
		go func(pid int32) {
			defer wg.Done()
			n := 0
			for c := 0; c < k; c++ {
				if tb.ClaimFree(c, pid) {
					n++
				}
			}
			wins[pid-1] = n
		}(int32(p + 1))
	}
	wg.Wait()
	total := 0
	for _, w := range wins {
		total += w
	}
	if total != k {
		t.Fatalf("total claims = %d, want %d", total, k)
	}
	for c := 0; c < k; c++ {
		if tb.Occupant(c) == Free {
			t.Fatalf("core %d left free", c)
		}
	}
}

// TestConcurrentClaimReleaseChurn stresses claim/release cycles; the final
// table must be consistent (every core free after everyone releases).
func TestConcurrentClaimReleaseChurn(t *testing.T) {
	const k, progs, iters = 8, 4, 2000
	tb := NewMem(k)
	var wg sync.WaitGroup
	for p := 0; p < progs; p++ {
		wg.Add(1)
		go func(pid int32) {
			defer wg.Done()
			held := make([]bool, k)
			for i := 0; i < iters; i++ {
				c := i % k
				if held[c] {
					if !tb.Release(c, pid) {
						panic("lost a held core")
					}
					held[c] = false
				} else if tb.ClaimFree(c, pid) {
					held[c] = true
				}
			}
			for c, h := range held {
				if h {
					tb.Release(c, pid)
				}
			}
		}(int32(p + 1))
	}
	wg.Wait()
	if got := len(freeCores(tb)); got != k {
		t.Fatalf("free cores after churn = %d, want %d", got, k)
	}
}

func TestHomeCoresEven(t *testing.T) {
	got := HomeCores(16, 2, 0)
	if len(got) != 8 || got[0] != 0 || got[7] != 7 {
		t.Fatalf("HomeCores(16,2,0) = %v", got)
	}
	got = HomeCores(16, 2, 1)
	if len(got) != 8 || got[0] != 8 || got[7] != 15 {
		t.Fatalf("HomeCores(16,2,1) = %v", got)
	}
}

func TestHomeCoresUneven(t *testing.T) {
	// 10 cores, 3 programs: blocks of 4, 3, 3.
	sizes := []int{4, 3, 3}
	next := 0
	for idx, want := range sizes {
		got := HomeCores(10, 3, idx)
		if len(got) != want {
			t.Fatalf("HomeCores(10,3,%d) = %v, want size %d", idx, got, want)
		}
		for i, c := range got {
			if c != next+i {
				t.Fatalf("HomeCores(10,3,%d) = %v, not contiguous from %d", idx, got, next)
			}
		}
		next += want
	}
}

// TestHomeCoresMoreProgramsThanCores pins the documented m > k contract:
// the first k programs get one core each, the rest get an empty share —
// no panic, no overlap.
func TestHomeCoresMoreProgramsThanCores(t *testing.T) {
	const k, m = 3, 5
	for idx := 0; idx < m; idx++ {
		got := HomeCores(k, m, idx)
		switch {
		case idx < k:
			if len(got) != 1 || got[0] != idx {
				t.Fatalf("HomeCores(%d,%d,%d) = %v, want [%d]", k, m, idx, got, idx)
			}
		default:
			if len(got) != 0 {
				t.Fatalf("HomeCores(%d,%d,%d) = %v, want empty share", k, m, idx, got)
			}
		}
	}
}

func TestHomeCoresPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("HomeCores out-of-range did not panic")
		}
	}()
	HomeCores(4, 2, 2)
}

// Property: for any (k, m), home allocations partition [0, k): disjoint,
// contiguous overall, covering every core exactly once, with sizes
// differing by at most one.
func TestPropertyHomeCoresPartition(t *testing.T) {
	f := func(kRaw, mRaw uint8) bool {
		k := int(kRaw%64) + 1
		m := int(mRaw%96) + 1 // may exceed k: overflow programs get empty shares
		covered := make([]int, k)
		minSize, maxSize := k+1, 0
		for idx := 0; idx < m; idx++ {
			cores := HomeCores(k, m, idx)
			if len(cores) < minSize {
				minSize = len(cores)
			}
			if len(cores) > maxSize {
				maxSize = len(cores)
			}
			for _, c := range cores {
				if c < 0 || c >= k {
					return false
				}
				covered[c]++
			}
		}
		for _, n := range covered {
			if n != 1 {
				return false
			}
		}
		return maxSize-minSize <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
