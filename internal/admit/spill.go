package admit

import "fmt"

// SpillPolicy selects where a federation front tier redirects a job a
// shard refused with a Spillable verdict. The live router and the
// simulator's RunFederation both pick the next shard through Next, so one
// flag value means the same on both substrates.
type SpillPolicy int

const (
	SpillNext   SpillPolicy = iota // the zero value: the first eligible shard of the tenant's walk
	SpillNone                      // never redirect: a refusal resolves where it fell
	SpillRandom                    // a uniformly random eligible shard
)

// DefaultSpillBudget caps a job's redirect hops when the caller sets none.
const DefaultSpillBudget = 2

// spillNames are each policy's report name (String) and flag name.
var spillNames = [...][2]string{
	SpillNext:   {"next-preferred", "next"},
	SpillNone:   {"no-spill", "none"},
	SpillRandom: {"random", "random"},
}

// ParseSpillPolicy maps a flag name (none|random|next) or a report name
// onto a policy.
func ParseSpillPolicy(s string) (SpillPolicy, error) {
	for p, names := range spillNames {
		if s == names[0] || s == names[1] {
			return SpillPolicy(p), nil
		}
	}
	return 0, fmt.Errorf("admit: unknown spill policy %q (want none|random|next)", s)
}

// String names the policy as reports, BENCH_federation.json and the
// router's /v1/info do.
func (p SpillPolicy) String() string {
	if p >= 0 && int(p) < len(spillNames) {
		return spillNames[p][0]
	}
	return fmt.Sprintf("SpillPolicy(%d)", int(p))
}

// Next picks the shard a refused job goes to next; ok is false when the
// refusal resolves where it fell. shards is every shard in the caller's
// fixed index order, walk the tenant's walk over them, home first, and
// out(s) reports a shard the job may not go to (it refused the job, or
// the caller knows it is down). hops counts the redirects taken so far
// and budget caps them.
//
// SpillNext takes the first shard of walk not out. SpillRandom draws
// exactly once, intn(n) over the n shards not out in index order,
// whenever n ≥ 1, and not at all at n = 0: the simulator's replays are
// pinned to that draw sequence. If a shard turns out between its two
// passes and the pick runs off the end, ok is false.
func Next[S any](p SpillPolicy, walk, shards []S, hops, budget int, out func(S) bool, intn func(int) int) (next S, ok bool) {
	if hops >= budget {
		return next, false
	}
	switch p {
	case SpillNext:
		for _, s := range walk {
			if !out(s) {
				return s, true
			}
		}
	case SpillRandom:
		n := 0
		for _, s := range shards {
			if !out(s) {
				n++
			}
		}
		if n == 0 {
			return next, false
		}
		r := intn(n)
		for _, s := range shards {
			if !out(s) {
				if r == 0 {
					return s, true
				}
				r--
			}
		}
	}
	return next, false
}
