package arbiter

import "math/rand"

// The coordinator's decision (PAPER.md §3.3), clock-free so the live
// runtime and the simulator run the same rule: each substrate observes
// its own demand and core occupancy, asks Want and Plan what to do, and
// keeps only the CAS-and-wake loop that carries the plan out.

// Want returns N_w, the number of workers a coordinator pass tries to
// wake: N_b / N_a, or N_b when no worker is active.
func Want(nb, na int) int {
	if na == 0 {
		return nb
	}
	return nb / na
}

// Plan applies the three-case rule to nw wanted workers, the free cores
// whose affined worker sleeps (N_f = len(free)) and the sleeping workers'
// home cores held by another program (N_r = len(borrowed)). It returns
// the cores to claim, then the cores to reclaim — at most nw in all:
//
//   - case 1, nw ≤ N_f: nw free cores drawn at random;
//   - case 2, nw ≤ N_f + N_r: every free core and nw − N_f borrowed
//     home cores drawn at random;
//   - case 3: every free core and every borrowed home core.
//
// Case 1 draws rng.Perm(N_f), case 2 rng.Perm(N_r), case 3 nothing;
// that fixed draw is part of the contract, since the simulator's
// outputs depend on it. The returned slices alias free, borrowed or the
// drawn permutation.
func Plan(nw int, free, borrowed []int, rng *rand.Rand) (claim, reclaim []int) {
	nf, nr := len(free), len(borrowed)
	switch {
	case nw <= 0:
		return nil, nil
	case nw <= nf:
		return pick(free, nw, rng), nil
	case nw <= nf+nr:
		return free, pick(borrowed, nw-nf, rng)
	default:
		return free, borrowed
	}
}

// pick returns n of xs in the order rng.Perm(len(xs)) lists them,
// mapped in place over the permutation.
func pick(xs []int, n int, rng *rand.Rand) []int {
	perm := rng.Perm(len(xs))[:n]
	for i, j := range perm {
		perm[i] = xs[j]
	}
	return perm
}
