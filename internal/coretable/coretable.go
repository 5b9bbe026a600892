// Package coretable implements the paper's core allocation table (§3.1,
// Table 1): one entry per hardware core recording which program currently
// occupies it, plus the claim/release/reclaim protocol DWS programs use to
// exchange cores without a centralised OS allocator.
//
// Entry values: Free (0) means the core is released and may be claimed by
// any program; a positive value is the occupying program's ID.
//
// Alongside each occupancy entry the table keeps an eviction flag: when a
// home owner reclaims a core from a borrower it raises the flag, and the
// borrower's worker — which polls the flag between tasks — stops and
// sleeps. This fills in the reclaim mechanism the paper leaves unspecified
// (see DESIGN.md §5).
//
// Two backings are provided: an in-memory table (used by the simulator and
// the in-process live runtime) and a file-backed table mapped with mmap(2),
// mirroring the paper's implementation where the first-launched program
// creates the shared file (§3.4). Both expose the same methods via the
// shared Table type.
package coretable

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Free marks an unoccupied core.
const Free int32 = 0

// nowNanos is the lease clock (wall clock, so independently launched
// processes agree on it). Tests may substitute a fake.
var nowNanos = func() int64 { return time.Now().UnixNano() }

// Table is a core allocation table over k cores. All methods are safe for
// concurrent use by multiple programs' workers and coordinators.
//
// Alongside the occupancy entries the table keeps one lease slot per
// program ID in [1, k]: a generation counter (epoch, bumped on every
// Join) and the wall-clock nanosecond timestamp of the program's last
// heartbeat (0 = no live lease). A program that dies without releasing
// its cores stops beating; any survivor's SweepExpired then frees the
// dead program's cores so co-runners are not starved forever.
type Table struct {
	k        int
	occ      []atomic.Int32 // occupant program ID per core, Free if none
	evict    []atomic.Int32 // 1 while an eviction of the occupant is pending
	epoch    []atomic.Int64 // per-program join generation
	beat     []atomic.Int64 // per-program last-heartbeat UnixNano, 0 = none
	ent      []atomic.Int32 // per-program core entitlement (see entitlement.go)
	entEpoch *atomic.Int64  // entitlement generation, 0 = never arbitrated
	now      func() int64   // lease clock override; nil = package nowNanos
	closer   func() error   // non-nil for file-backed tables
}

// SetNowFunc overrides this table's lease clock (Join/Beat/SweepExpired
// timestamps). The runtime installs its Clock here so virtual-clock tests
// control lease expiry. nil restores the package default. Call before the
// table is shared; the field is not synchronised.
func (t *Table) SetNowFunc(f func() int64) { t.now = f }

// clock returns the table's lease clock.
func (t *Table) clock() int64 {
	if t.now != nil {
		return t.now()
	}
	return nowNanos()
}

// NewMem returns an in-memory table for k cores, all free.
func NewMem(k int) *Table {
	if k <= 0 {
		panic(fmt.Sprintf("coretable: non-positive core count %d", k))
	}
	return &Table{
		k:        k,
		occ:      make([]atomic.Int32, k),
		evict:    make([]atomic.Int32, k),
		epoch:    make([]atomic.Int64, k),
		beat:     make([]atomic.Int64, k),
		ent:      make([]atomic.Int32, k),
		entEpoch: new(atomic.Int64),
	}
}

// K returns the number of cores the table covers.
func (t *Table) K() int { return t.k }

func (t *Table) check(core int) {
	if core < 0 || core >= t.k {
		panic(fmt.Sprintf("coretable: core %d out of range [0,%d)", core, t.k))
	}
}

func checkPID(pid int32) {
	if pid <= 0 {
		panic(fmt.Sprintf("coretable: invalid program id %d (must be positive)", pid))
	}
}

// Occupant returns the program currently occupying core, or Free.
func (t *Table) Occupant(core int) int32 {
	t.check(core)
	return t.occ[core].Load()
}

// ClaimFree atomically claims core for pid if it is free. It reports
// whether the claim succeeded.
func (t *Table) ClaimFree(core int, pid int32) bool {
	t.check(core)
	checkPID(pid)
	return t.occ[core].CompareAndSwap(Free, pid)
}

// Release atomically frees core if pid occupies it. It reports whether the
// release happened (false means someone else holds it, e.g. it was already
// reclaimed out from under pid).
func (t *Table) Release(core int, pid int32) bool {
	t.check(core)
	checkPID(pid)
	if !t.occ[core].CompareAndSwap(pid, Free) {
		return false
	}
	// A release completes any pending eviction of pid from this core.
	t.evict[core].Store(0)
	return true
}

// Reclaim atomically transfers core from borrower to owner and raises the
// eviction flag so the borrower's worker stops at its next boundary. It
// reports whether the transfer happened (false means borrower no longer
// occupies the core).
func (t *Table) Reclaim(core int, owner, borrower int32) bool {
	t.check(core)
	checkPID(owner)
	checkPID(borrower)
	if owner == borrower {
		panic("coretable: Reclaim with owner == borrower")
	}
	if !t.occ[core].CompareAndSwap(borrower, owner) {
		return false
	}
	t.evict[core].Store(1)
	return true
}

// EvictionPending reports whether an eviction flag is raised for core.
// The evicted worker observes this between tasks.
func (t *Table) EvictionPending(core int) bool {
	t.check(core)
	return t.evict[core].Load() != 0
}

// AckEviction clears the eviction flag; the evicted worker calls this as
// it stops running on the core.
func (t *Table) AckEviction(core int) {
	t.check(core)
	t.evict[core].Store(0)
}

// checkLeasePID verifies pid has a lease slot (lease slots cover program
// IDs 1..k; occupancy entries accept any positive pid, but only programs
// with a lease slot participate in the heartbeat protocol).
func (t *Table) checkLeasePID(pid int32) {
	checkPID(pid)
	if int(pid) > t.k {
		panic(fmt.Sprintf("coretable: program id %d has no lease slot (max %d)", pid, t.k))
	}
}

// Join starts (or restarts) pid's lease: it stamps the heartbeat with the
// current time and bumps the program's epoch. It returns the new epoch.
// The beat is stored before the epoch so a concurrent sweeper can never
// mistake a freshly joined program for the dead generation it replaces
// (SweepExpired claims a sweep by CASing the stale beat, which fails once
// the new beat is in place).
func (t *Table) Join(pid int32) int64 {
	t.checkLeasePID(pid)
	t.beat[pid-1].Store(t.clock())
	return t.epoch[pid-1].Add(1)
}

// Beat refreshes pid's heartbeat. Coordinators call this every period.
func (t *Table) Beat(pid int32) {
	t.checkLeasePID(pid)
	t.beat[pid-1].Store(t.clock())
}

// Leave ends pid's lease cleanly (program exit after releasing its
// cores); the slot is no longer considered live and is never swept.
func (t *Table) Leave(pid int32) {
	t.checkLeasePID(pid)
	t.beat[pid-1].Store(0)
}

// LeaseEpoch returns pid's join generation (0 = never joined).
func (t *Table) LeaseEpoch(pid int32) int64 {
	t.checkLeasePID(pid)
	return t.epoch[pid-1].Load()
}

// LeaseBeat returns the UnixNano timestamp of pid's last heartbeat, or 0
// if pid holds no live lease.
func (t *Table) LeaseBeat(pid int32) int64 {
	t.checkLeasePID(pid)
	return t.beat[pid-1].Load()
}

// Expired describes one dead program found by SweepExpired.
type Expired struct {
	// PID is the dead program's table ID.
	PID int32
	// Epoch is the generation that died.
	Epoch int64
	// Cores is how many cores the sweep freed for the dead program.
	Cores int
}

// SweepExpired scans the lease slots for programs whose heartbeat is
// older than ttl and frees every core they still occupy via the CAS
// protocol, so surviving programs can claim them. self (0 = none) is the
// caller's own program ID and is skipped.
//
// Exactly one concurrent sweeper wins each dead program: the sweep is
// claimed by CASing the stale beat to 0, so double-counting (and double
// handler invocation upstream) cannot happen. A program that re-Joins
// concurrently stores a fresh beat first, which makes the claim CAS fail
// and protects the new generation's cores.
func (t *Table) SweepExpired(self int32, ttl time.Duration) []Expired {
	if ttl <= 0 {
		panic(fmt.Sprintf("coretable: non-positive lease ttl %v", ttl))
	}
	now := t.clock()
	var dead []Expired
	for i := 0; i < t.k; i++ {
		pid := int32(i + 1)
		if pid == self {
			continue
		}
		b := t.beat[i].Load()
		if b == 0 || now-b <= int64(ttl) {
			continue
		}
		if !t.beat[i].CompareAndSwap(b, 0) {
			continue // another sweeper (or a rejoin) got here first
		}
		e := Expired{PID: pid, Epoch: t.epoch[i].Load()}
		for c := 0; c < t.k; c++ {
			if t.occ[c].Load() != pid {
				continue
			}
			// Clear the eviction flag while the dead program is still the
			// occupant: the flag targets the (dead) occupant, so nobody can
			// miss it, and a freed core must not start life with a stale
			// pending eviction.
			t.evict[c].Store(0)
			if t.occ[c].CompareAndSwap(pid, Free) {
				e.Cores++
			}
		}
		dead = append(dead, e)
	}
	return dead
}

// Snapshot copies the occupancy array. It is a racy snapshot under
// concurrency, which is all the coordinator needs (§3.3 reads the table
// without locks).
func (t *Table) Snapshot() []int32 {
	s := make([]int32, t.k)
	for i := range s {
		s[i] = t.occ[i].Load()
	}
	return s
}

// CountOccupiedBy returns how many cores pid currently occupies.
func (t *Table) CountOccupiedBy(pid int32) int {
	n := 0
	for i := 0; i < t.k; i++ {
		if t.occ[i].Load() == pid {
			n++
		}
	}
	return n
}

// Close releases any resources behind the table (the mapping for
// file-backed tables). It is a no-op for in-memory tables.
func (t *Table) Close() error {
	if t.closer != nil {
		return t.closer()
	}
	return nil
}

// String renders the table like the paper's Table 1.
func (t *Table) String() string {
	s := "cores:"
	for i := 0; i < t.k; i++ {
		occ := t.occ[i].Load()
		if occ == Free {
			s += " -"
		} else {
			s += fmt.Sprintf(" p%d", occ)
		}
	}
	return s
}

// HomeCores returns the paper's initial even allocation: program index idx
// (0-based) of m co-running programs on k cores gets a contiguous block of
// ⌈k/m⌉ or ⌊k/m⌋ adjacent cores, with the first k%m programs getting the
// larger blocks.
//
// When m > k (more programs than cores — the paper never runs this, but
// dwsd tenants can) the first k programs get one core each and the
// remaining m-k programs get an empty share: they own no home core, so
// they can never reclaim, but they still claim free cores under case 1 of
// the coordinator rule and so make progress whenever co-runners sleep.
// The weighted arbiter (internal/arbiter) redistributes entitlements in
// this regime too, under the same "at most k programs hold a non-empty
// share" constraint.
//
// It panics on non-positive k or m, or idx outside [0, m).
func HomeCores(k, m, idx int) []int {
	if k <= 0 || m <= 0 || idx < 0 || idx >= m {
		panic(fmt.Sprintf("coretable: HomeCores(%d, %d, %d) out of range", k, m, idx))
	}
	base := k / m
	extra := k % m
	start := idx * base
	if idx < extra {
		start += idx
	} else {
		start += extra
	}
	size := base
	if idx < extra {
		size++
	}
	cores := make([]int, size)
	for i := range cores {
		cores[i] = start + i
	}
	return cores
}

// InstallHome claims every core in home for pid, overwriting whatever was
// there. It is used once at experiment start to install the initial even
// allocation (the paper's programs start space-shared).
func (t *Table) InstallHome(home []int, pid int32) {
	checkPID(pid)
	for _, c := range home {
		t.check(c)
		t.occ[c].Store(pid)
		t.evict[c].Store(0)
	}
}

// Reset frees every core, clears all eviction flags, and drops every
// lease (epochs are preserved — they count generations for the table's
// lifetime). Entitlements are cleared and the entitlement epoch returns
// to 0 ("never arbitrated"), so programs fall back to the static
// HomeCores split until an arbiter publishes again.
func (t *Table) Reset() {
	for i := 0; i < t.k; i++ {
		t.occ[i].Store(Free)
		t.evict[i].Store(0)
		t.beat[i].Store(0)
		t.ent[i].Store(0)
	}
	t.entEpoch.Store(0)
}
