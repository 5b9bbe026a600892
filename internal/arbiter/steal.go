package arbiter

import (
	"math/rand"

	"dws/internal/topo"
)

// Algorithm 1's per-worker decisions (PAPER.md), clock-free so the live
// runtime and the simulator make the same ones: which victim a thief
// tries next (Order), when a drought parks it (Park, ToPark) and when
// liveness forbids the park (MaySleep). Each substrate keeps only its
// deques, its clock and the sleep itself.

// remoteStealBackoff is how many passes stay same-socket only after a
// full pass (local and remote segments) finds nothing to steal: a
// drought should not keep hammering remote sockets' deque cache lines.
// Small and constant, so the latency it can add before T_SLEEP parks the
// worker stays bounded.
const remoteStealBackoff = 2

// Order is one worker's victim order: a shuffled cycle over its victims,
// reshuffled once per pass. It keeps the choice random (Algorithm 1
// line 8) while guaranteeing a full scan every pass, so T_SLEEP
// consecutive failures mean "no stealable work", not "unlucky draws".
//
// On a multi-socket layout a pass scans the shuffled same-socket segment
// before the shuffled remote one, with two refinements: a full pass
// without a successful steal makes the next remoteStealBackoff passes
// local-only, and a worker robbed across a socket boundary starts its
// next remote segment with the thief's socket (steal-back). A flat
// layout is one shuffled cycle. Draws come from the caller's rng in a
// fixed pattern — rng.Shuffle over the local segment, then over the
// remote one when the pass includes it — which the simulator's outputs
// depend on. An Order is owner-only and allocates nothing after
// NewOrder.
type Order struct {
	t      *topo.Topology
	order  []int // the victims, permuted in place pass by pass
	nLocal int   // order[:nLocal] share the worker's socket
	pos    int   // next draw's index in order
	limit  int   // the current pass ends at order[limit]
	// stole records a successful steal in the current pass; a finished
	// full pass without one arms the backoff.
	stole  bool
	skip   int // local-only passes left before remotes are scanned again
	robbed int // socket of the last cross-socket thief; -1 = none
}

// NewOrder lays out worker self's victims: every pool member but self,
// same-socket victims first, then the remote ones in ascending socket
// order, each group in pool order. flat (or a flat t) treats every
// victim as local. The pool is the worker's program's cores (EP: its
// home cores only).
func NewOrder(t *topo.Topology, flat bool, pool []int, self int) Order {
	vs := make([]int, 0, len(pool))
	own := t.SocketOf(self)
	segment := func(s int) {
		for _, v := range pool {
			if v != self && (flat || t.SocketOf(v) == s) {
				vs = append(vs, v)
			}
		}
	}
	segment(own)
	nLocal := len(vs)
	for s := 0; s < t.NumSockets() && !flat; s++ {
		if s != own {
			segment(s)
		}
	}
	// A phantom finished full pass with a steal, so the first draw begins
	// a pass without arming the backoff.
	return Order{t: t, order: vs, nLocal: nLocal, pos: len(vs), limit: len(vs), stole: true, robbed: -1}
}

// Victims returns the victims in their current permutation (a set, not
// a draw order). The slice is the Order's own; do not modify it.
func (o *Order) Victims() []int { return o.order }

// Next returns the next victim, beginning a new pass when the current
// one is spent. The Order must have at least one victim.
func (o *Order) Next(rng *rand.Rand) int {
	if o.pos >= o.limit {
		o.beginPass(rng)
	}
	v := o.order[o.pos]
	o.pos++
	return v
}

// PassDone reports whether the last Next drew the current pass's final
// victim.
func (o *Order) PassDone() bool { return o.pos >= o.limit }

// Stole records a successful steal from the victim Next last returned.
func (o *Order) Stole() { o.stole = true }

// Robbed records that a thief on socket s stole from this worker across
// a socket boundary; the next full pass starts its remote segment there.
func (o *Order) Robbed(s int) { o.robbed = s }

// beginPass closes the finished pass — arming the remote backoff after a
// fruitless full pass, draining it after a local-only one — and shuffles
// the segments for the next pass.
func (o *Order) beginPass(rng *rand.Rand) {
	n, nl := len(o.order), o.nLocal
	full := o.limit == n
	if nl > 0 && nl < n {
		if full && !o.stole {
			o.skip = remoteStealBackoff
		} else if !full && o.skip > 0 {
			o.skip--
		}
	}
	o.stole = false
	o.pos = 0
	o.limit = n
	if o.skip > 0 {
		o.limit = nl
	}
	order := o.order
	rng.Shuffle(nl, func(i, j int) { order[i], order[j] = order[j], order[i] })
	if o.limit == nl {
		return
	}
	rem := order[nl:]
	rng.Shuffle(len(rem), func(i, j int) { rem[i], rem[j] = rem[j], rem[i] })
	if rf := o.robbed; rf >= 0 {
		// Steal-back: stable-partition the robbing socket's victims to the
		// front of the remote segment, then consume the bias.
		o.robbed = -1
		k := 0
		for i, v := range rem {
			if o.t.SocketOf(v) == rf {
				copy(rem[k+1:i+1], rem[k:i])
				rem[k] = v
				k++
			}
		}
	}
}

// Park reports whether a worker with failed consecutive failed steal
// attempts sleeps: Algorithm 1's failed_steals > T_SLEEP.
func Park(failed, tSleep int) bool { return failed > tSleep }

// ToPark returns how many more failed attempts make Park true, at least
// one.
func ToPark(failed, tSleep int) int { return max(tSleep-failed+1, 1) }

// MaySleep reports whether a worker may sleep when othersActive of its
// program's other workers stay active: the last active worker of a
// program whose run is in progress must keep stealing (liveness;
// DESIGN.md §5).
func MaySleep(othersActive int, running bool) bool { return !running || othersActive > 0 }
