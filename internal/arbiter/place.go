package arbiter

import (
	"sort"

	"dws/internal/coretable"
	"dws/internal/topo"
)

// Place maps an entitlement size vector (what Apportion produced and
// SetEntitlements published) onto concrete core indices, packing each
// program within one socket when a socket has a long-enough free run and
// tearing along socket boundaries — largest free runs first — when it
// does not. It is the placement half of the arbiter: Apportion decides
// *how many* cores each program holds, Place decides *which* ones.
//
// Like Apportion, Place is pure and deterministic and is recomputed
// from the published size vector by every reader (live runtime,
// simulator, schedcheck) rather than being published itself, so the
// substrates agree bit-for-bit and the coretable wire format is
// untouched.
//
// The algorithm walks programs in slot order, maintaining the set of
// free cores as maximal runs of consecutive indices within one socket:
//
//  1. first-fit: the lowest-start run with len >= size takes the
//     program whole — a program that fits in one socket never straddles;
//  2. tear: otherwise the program takes whole runs in descending length
//     order (ties toward the lower start) and the tail of one more run,
//     minimizing the number of fragments the block splits into;
//  3. clamp: if free capacity runs out (an over-committed vector from a
//     racy entitlement snapshot), the program keeps whatever it got —
//     benign for the same reason EntitledCores clamps to [0,k).
//
// Each program's final core list is sorted ascending. Under a flat
// topology the free set is a single run, first-fit always hits it at
// the prefix position, and the result is bit-identical to the
// prefix-sum contiguous split EntitledCores describes — the degeneracy
// anchor the property tests pin.
//
// Slot-order iteration is also what keeps re-apportion churn low: a
// program whose size did not change sees the same free-run state it saw
// last epoch (earlier slots consumed the same prefix), so its block
// does not move; only programs whose sizes changed — and the later
// slots their delta displaces — are re-placed.
func Place(t *topo.Topology, ents []int32) [][]int {
	placed := make([][]int, len(ents))

	// Free runs, rebuilt as we go. Start with one run per socket.
	type run struct{ start, size int }
	var runs []run
	for s := 0; s < t.NumSockets(); s++ {
		cores := t.Socket(s)
		for i := 0; i < len(cores); {
			j := i
			for j+1 < len(cores) && cores[j+1] == cores[j]+1 {
				j++
			}
			runs = append(runs, run{cores[i], j - i + 1})
			i = j + 1
		}
	}

	take := func(ri, n int) []int {
		r := &runs[ri]
		out := make([]int, n)
		for i := 0; i < n; i++ {
			out[i] = r.start + i
		}
		r.start += n
		r.size -= n
		return out
	}
	compact := func() {
		live := runs[:0]
		for _, r := range runs {
			if r.size > 0 {
				live = append(live, r)
			}
		}
		runs = live
	}

	for p, e := range ents {
		need := int(e)
		if need <= 0 {
			continue
		}

		// First fit: lowest-start run that holds the whole program.
		fit := -1
		for i, r := range runs {
			if r.size >= need && (fit < 0 || r.start < runs[fit].start) {
				fit = i
			}
		}
		if fit >= 0 {
			placed[p] = take(fit, need)
			compact()
			continue
		}

		// Tear: whole runs in descending length (ties toward lower start),
		// then the tail out of the next one. Fewest fragments by
		// construction: any cover of `need` cores by runs of these lengths
		// uses at least this many pieces.
		order := make([]int, len(runs))
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool {
			ra, rb := runs[order[a]], runs[order[b]]
			if ra.size != rb.size {
				return ra.size > rb.size
			}
			return ra.start < rb.start
		})
		var got []int
		for _, ri := range order {
			if need == 0 {
				break
			}
			n := runs[ri].size
			if n > need {
				n = need
			}
			got = append(got, take(ri, n)...)
			need -= n
		}
		// need > 0 here means the vector over-commits the machine (racy
		// snapshot); clamp by giving this program only what exists.
		sort.Ints(got)
		placed[p] = got
		compact()
	}
	return placed
}

// PlacedFor returns Place(t, ents)[idx] for a single program slot —
// convenience for readers that only care about their own block.
func PlacedFor(t *topo.Topology, ents []int32, idx int) []int {
	if idx < 0 || idx >= len(ents) {
		return nil
	}
	return Place(t, ents)[idx]
}

// Home returns program slot idx's current home block, the one its
// coordinator reclaims against (§3.3 cases 2–3): the entitled block once
// an arbiter has published into t, the static even split otherwise (and
// always when t is nil). With placed set on a multi-socket topology the
// entitled block is the placed one (PlacedFor over the published sizes);
// otherwise it is the table's flat prefix-sum slice.
func Home(t *coretable.Table, tp *topo.Topology, idx int, static []int, placed bool) []int {
	if t == nil {
		return static
	}
	if placed && !tp.Flat() {
		if t.EntitlementEpoch() > 0 {
			return PlacedFor(tp, t.Entitlements(), idx)
		}
		return static
	}
	if ent := t.EntitledCores(idx); ent != nil {
		return ent
	}
	return static
}
