//go:build linux || darwin

package coretable

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func TestFileTableBasics(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dws.table")
	tb, err := OpenFile(path, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	if !tb.ClaimFree(3, 5) {
		t.Fatal("claim failed")
	}
	if got := tb.Occupant(3); got != 5 {
		t.Fatalf("Occupant = %d", got)
	}
}

// TestFileTableShared opens the same file twice (as two "programs" would)
// and checks that changes through one mapping are visible in the other.
func TestFileTableShared(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dws.table")
	a, err := OpenFile(path, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := OpenFile(path, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	if !a.ClaimFree(2, 1) {
		t.Fatal("claim via a failed")
	}
	if got := b.Occupant(2); got != 1 {
		t.Fatalf("mapping b sees occupant %d, want 1", got)
	}
	if b.ClaimFree(2, 2) {
		t.Fatal("mapping b claimed an occupied core")
	}
	if !b.Reclaim(2, 3, 1) {
		t.Fatal("reclaim via b failed")
	}
	if !a.EvictionPending(2) {
		t.Fatal("eviction flag not visible through mapping a")
	}
}

func TestFileTableKMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dws.table")
	a, err := OpenFile(path, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if _, err := OpenFile(path, 8); err == nil {
		t.Fatal("opening with mismatched k succeeded")
	}
}

// TestFileTableLeaseShared checks that leases — like occupancy — live in
// the shared mapping: a program's Join/Beat through one mapping is
// visible through the other, and a survivor's sweep through its own
// mapping frees cores the dead program claimed through the first.
func TestFileTableLeaseShared(t *testing.T) {
	now := fakeClock(t)
	path := filepath.Join(t.TempDir(), "dws.table")
	a, err := OpenFile(path, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := OpenFile(path, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	if ep := a.Join(1); ep != 1 {
		t.Fatalf("epoch = %d", ep)
	}
	a.ClaimFree(0, 1)
	a.ClaimFree(1, 1)
	if got := b.LeaseBeat(1); got != *now {
		t.Fatalf("mapping b sees beat %d, want %d", got, *now)
	}
	if got := b.LeaseEpoch(1); got != 1 {
		t.Fatalf("mapping b sees epoch %d, want 1", got)
	}
	*now += 10 * int64(100*time.Millisecond)
	dead := b.SweepExpired(2, 100*time.Millisecond)
	if len(dead) != 1 || dead[0].PID != 1 || dead[0].Cores != 2 {
		t.Fatalf("sweep through mapping b = %+v", dead)
	}
	if a.Occupant(0) != Free || a.Occupant(1) != Free {
		t.Fatal("freed cores not visible through mapping a")
	}
}

// TestFileTableVersionMismatch rejects a file with the right size but a
// stale layout version (pre-lease files must not be silently reused).
func TestFileTableVersionMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dws.table")
	buf := make([]byte, fileSize(4))
	binary.LittleEndian.PutUint32(buf[0:], fileMagic)
	binary.LittleEndian.PutUint32(buf[4:], 1) // version 1: no lease area
	binary.LittleEndian.PutUint32(buf[8:], 4)
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFile(path, 4); err == nil {
		t.Fatal("stale layout version accepted")
	}
}

// TestFileTableEntitlementsShared checks that the v3 entitlement area —
// like occupancy and leases — lives in the shared mapping: an arbiter in
// one process publishes, coordinators in another derive their elastic
// homes from it, and a racing publisher with a stale epoch aborts.
func TestFileTableEntitlementsShared(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dws.table")
	a, err := OpenFile(path, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := OpenFile(path, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	if got := entitledCores(b, 0); got != nil {
		t.Fatalf("unarbitrated file table entitled cores = %v, want nil", got)
	}
	if _, ok := a.SetEntitlements([]int32{3, 1, 0, 0}, 0); !ok {
		t.Fatal("publish via mapping a failed")
	}
	if got := b.EntitlementEpoch(); got != 1 {
		t.Fatalf("mapping b sees entitlement epoch %d, want 1", got)
	}
	if got := b.Entitlement(1); got != 3 {
		t.Fatalf("mapping b sees p1 entitlement %d, want 3", got)
	}
	if got := entitledCores(b, 1); len(got) != 1 || got[0] != 3 {
		t.Fatalf("mapping b derives slot 1 cores %v, want [3]", got)
	}
	if _, ok := b.SetEntitlements([]int32{4, 0, 0, 0}, 0); ok {
		t.Fatal("stale-epoch publish via mapping b succeeded")
	}
}

func TestFileTableBadK(t *testing.T) {
	if _, err := OpenFile(filepath.Join(t.TempDir(), "x"), 0); err == nil {
		t.Fatal("k=0 accepted")
	}
}

// TestFileTableConcurrentMappings races claims through two mappings of the
// same file; every core must end with exactly one occupant.
func TestFileTableConcurrentMappings(t *testing.T) {
	const k = 16
	path := filepath.Join(t.TempDir(), "dws.table")
	a, err := OpenFile(path, k)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := OpenFile(path, k)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	var wg sync.WaitGroup
	claims := make([]int, 2)
	for i, tb := range []*Table{a, b} {
		wg.Add(1)
		go func(i int, tb *Table) {
			defer wg.Done()
			n := 0
			for c := 0; c < k; c++ {
				if tb.ClaimFree(c, int32(i+1)) {
					n++
				}
			}
			claims[i] = n
		}(i, tb)
	}
	wg.Wait()
	if claims[0]+claims[1] != k {
		t.Fatalf("claims = %v, want total %d", claims, k)
	}
}
