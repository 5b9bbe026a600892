package coretable

import "fmt"

// Entitlements generalise the paper's fixed k/m home shares (§3.1): beside
// the lease area the table keeps one entitlement slot per program ID in
// [1, k] — how many cores the program is currently entitled to reclaim —
// plus a single monotone entitlement epoch. An external arbiter (see
// internal/arbiter) periodically publishes a fresh entitlement vector;
// coordinators derive their elastic home block from it with EntitledCores.
//
// While the epoch is 0 no arbiter has ever published and readers fall back
// to the static HomeCores split, so a table without an arbiter behaves
// exactly as before layout v3.
//
// Publication protocol: SetEntitlements first claims the update by CASing
// the epoch (exactly one concurrent publisher wins, mirroring the
// CAS-claimed lease sweeps), then stores the per-program values with every
// shrink strictly before any growth. Readers take racy snapshots — the
// table's doctrine throughout — so mid-publish they can observe a mixed
// vector whose sum transiently exceeds k and whose derived blocks
// transiently overlap. That is benign for the same reason racing lease
// sweeps are: cores move only through the occupancy CAS, so of two
// programs that both believe a core is home, exactly one reclaim wins.
// Shrink-before-grow narrows the overlap window but cannot eliminate it
// for a slot-at-a-time reader; the place where sum ≤ k is a hard
// invariant is the serialized observer stream (rt emits a batch's shrink
// rows before its grow rows, and schedcheck enforces the running sum).
// EntitledCores clamps derived blocks to [0, k), so a stale prefix can
// only cost a skipped (CAS-rechecked) reclaim, never an out-of-range
// core.

// Entitlement returns pid's current core entitlement (0 if never set or
// explicitly zero — e.g. an idle program whose share was redistributed).
func (t *Table) Entitlement(pid int32) int32 {
	t.checkLeasePID(pid)
	return t.ent[pid-1].Load()
}

// Entitlements returns a racy snapshot of the per-program entitlement
// vector (index i holds program i+1's entitlement).
func (t *Table) Entitlements() []int32 {
	s := make([]int32, t.k)
	for i := range s {
		s[i] = t.ent[i].Load()
	}
	return s
}

// EntitlementEpoch returns the entitlement generation: 0 until the first
// publish, then strictly increasing by one per successful SetEntitlements.
func (t *Table) EntitlementEpoch() int64 {
	return t.entEpoch.Load()
}

// SetEntitlements publishes a new entitlement vector. ents must have
// exactly K() entries (one per program ID) whose sum does not exceed K().
// prevEpoch is the epoch the publisher computed the vector against; the
// publish is claimed by CASing the epoch to prevEpoch+1, so exactly one of
// several racing publishers wins and a publisher working from a stale
// epoch aborts without writing. It returns the new epoch and whether the
// publish happened.
func (t *Table) SetEntitlements(ents []int32, prevEpoch int64) (int64, bool) {
	if len(ents) != t.k {
		panic(fmt.Sprintf("coretable: entitlement vector has %d entries, want %d", len(ents), t.k))
	}
	sum := int32(0)
	for i, e := range ents {
		if e < 0 {
			panic(fmt.Sprintf("coretable: negative entitlement %d for program %d", e, i+1))
		}
		sum += e
	}
	if sum > int32(t.k) {
		panic(fmt.Sprintf("coretable: entitlements sum to %d, more than %d cores", sum, t.k))
	}
	if !t.entEpoch.CompareAndSwap(prevEpoch, prevEpoch+1) {
		return t.entEpoch.Load(), false
	}
	// Shrinks first, then growths: this narrows (but cannot close — see
	// the package comment) the window in which a slot-at-a-time reader
	// over-counts the distributed cores.
	for i, e := range ents {
		if e < t.ent[i].Load() {
			t.ent[i].Store(e)
		}
	}
	for i, e := range ents {
		if e > t.ent[i].Load() {
			t.ent[i].Store(e)
		}
	}
	return prevEpoch + 1, true
}

// EntitledCores derives program slot idx's (0-based) elastic home block
// from the current entitlement vector: the contiguous block starting at
// the sum of lower-ID programs' entitlements, clamped to [0, K()). It
// returns nil when the entitlement epoch is still 0 (no arbiter — callers
// fall back to the static HomeCores split).
//
// With equal weights and every program active, an arbiter publishes
// exactly the HomeCores block sizes, so the derived blocks coincide with
// the paper's static allocation — the degenerate case.
func (t *Table) EntitledCores(idx int) []int {
	start, size, ok := t.EntitledBlock(idx)
	if !ok {
		return nil
	}
	cores := make([]int, size)
	for i := range cores {
		cores[i] = start + i
	}
	return cores
}

// EntitledBlock is EntitledCores as bounds: the block is cores
// [start, start+size), and ok is false while the entitlement epoch is 0.
// It allocates nothing, for callers on a per-job path.
func (t *Table) EntitledBlock(idx int) (start, size int, ok bool) {
	if t.entEpoch.Load() == 0 {
		return 0, 0, false
	}
	if idx < 0 || idx >= t.k {
		panic(fmt.Sprintf("coretable: EntitledBlock slot %d out of range [0,%d)", idx, t.k))
	}
	for i := 0; i < idx; i++ {
		start += int(t.ent[i].Load())
	}
	size = int(t.ent[idx].Load())
	if start > t.k {
		start = t.k
	}
	if start+size > t.k {
		size = t.k - start
	}
	return start, size, true
}
