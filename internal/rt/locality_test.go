package rt

import (
	"sync/atomic"
	"testing"

	"dws/internal/topo"
)

// newStoppedProgram builds a program on the given topology and shuts its
// goroutines down so the white-box tests below can drive worker methods
// (stealOrder, trySteal) single-threadedly without racing the loop.
func newStoppedProgram(t *testing.T, cores int, tp *topo.Topology) *Program {
	t.Helper()
	sys, err := NewSystem(Config{Cores: cores, Programs: 1, Policy: ABP, Topology: tp})
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	t.Cleanup(sys.Close)
	p, err := sys.NewProgram("whitebox")
	if err != nil {
		t.Fatalf("NewProgram: %v", err)
	}
	p.Close() // stop the worker goroutines; the structs stay usable
	for _, w := range p.workers {
		w.remoteSkip = 0 // a worker may have been stopped mid-backoff
	}
	return p
}

// TestStealOrderExactlyOncePerPhase pins the satellite contract for the
// hoisted victim order: one full failed scan probes every victim exactly
// once per phase — all same-socket victims first, then every remote one —
// for every worker and any rotation the RNG picks.
func TestStealOrderExactlyOncePerPhase(t *testing.T) {
	const cores = 8
	tp := topo.Uniform(cores, 4)
	p := newStoppedProgram(t, cores, tp)

	for _, w := range p.workers {
		if want := 3; w.nLocal != want {
			t.Fatalf("worker %d: nLocal = %d, want %d", w.id, w.nLocal, want)
		}
		for trial := 0; trial < 50; trial++ {
			n := w.stealOrder(true)
			if n != len(w.victims) {
				t.Fatalf("worker %d: full scan covers %d victims, want %d", w.id, n, len(w.victims))
			}
			seen := map[int]int{}
			for i := 0; i < n; i++ {
				v := w.scan[i]
				seen[v.id]++
				if local := v.socket == w.socket; local != (i < w.nLocal) {
					t.Fatalf("worker %d trial %d: victim %d (socket %d) at position %d breaks the phase order",
						w.id, trial, v.id, v.socket, i)
				}
			}
			if len(seen) != n {
				t.Fatalf("worker %d trial %d: scan visited %d distinct victims, want %d", w.id, trial, len(seen), n)
			}
			for id, c := range seen {
				if c != 1 {
					t.Fatalf("worker %d trial %d: victim %d probed %d times, want exactly once", w.id, trial, id, c)
				}
				if id == w.id {
					t.Fatalf("worker %d trial %d: scanned itself", w.id, trial)
				}
			}
			// A local-only scan covers exactly the same-socket victims.
			if n := w.stealOrder(false); n != w.nLocal {
				t.Fatalf("worker %d: local-only scan covers %d victims, want %d", w.id, n, w.nLocal)
			}
			for i := 0; i < w.nLocal; i++ {
				if w.scan[i].socket != w.socket {
					t.Fatalf("worker %d: local-only scan includes remote victim %d", w.id, w.scan[i].id)
				}
			}
		}
	}
}

// TestStealOrderFlatMatchesLegacy pins the degeneracy anchor: under a
// flat topology every victim is phase 1 and a scan is one random
// rotation over all siblings — the exact pre-topology order.
func TestStealOrderFlatMatchesLegacy(t *testing.T) {
	const cores = 6
	p := newStoppedProgram(t, cores, nil) // nil Topology = flat
	w := p.workers[2]
	if w.nLocal != len(w.victims) || len(w.victims) != cores-1 {
		t.Fatalf("flat: nLocal=%d victims=%d, want both %d", w.nLocal, len(w.victims), cores-1)
	}
	// Replay the legacy order derivation with a copied RNG state and check
	// the scan is that exact rotation.
	rng := w.rng
	legacyNext := func() uint64 {
		x := rng
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		rng = x
		return x * 0x2545F4914F6CDD1D
	}
	for trial := 0; trial < 20; trial++ {
		off := int((legacyNext() >> 32) * uint64(len(w.victims)) >> 32)
		n := w.stealOrder(true)
		if n != len(w.victims) {
			t.Fatalf("scan len %d, want %d", n, len(w.victims))
		}
		for i := 0; i < n; i++ {
			want := w.victims[(off+i)%n]
			if w.scan[i] != want {
				t.Fatalf("trial %d: flat scan[%d] = worker %d, want %d (legacy rotation)",
					trial, i, w.scan[i].id, want.id)
			}
		}
	}
}

// TestStealBackBias: a worker robbed across a socket boundary starts its
// next remote phase at the thief's socket segment, then the bias is
// consumed.
func TestStealBackBias(t *testing.T) {
	const cores = 12
	tp := topo.Uniform(cores, 4) // sockets {0-3} {4-7} {8-11}
	p := newStoppedProgram(t, cores, tp)
	w := p.workers[0] // socket 0; remote segments: socket 1 then socket 2

	w.robbedFrom.Store(2) // robbed by a socket-2 thief
	n := w.stealOrder(true)
	if n != len(w.victims) {
		t.Fatalf("scan len %d, want %d", n, len(w.victims))
	}
	if first := w.scan[w.nLocal]; first.socket != 2 {
		t.Fatalf("remote phase starts at worker %d (socket %d), want the robbing socket 2",
			first.id, first.socket)
	}
	// The whole socket-2 segment comes first, then socket 1 wraps in.
	for i := 0; i < 4; i++ {
		if got := w.scan[w.nLocal+i].socket; got != 2 {
			t.Fatalf("remote position %d on socket %d, want 2", i, got)
		}
	}
	if rf := w.robbedFrom.Load(); rf != -1 {
		t.Fatalf("steal-back bias not consumed: robbedFrom = %d", rf)
	}

	// trySteal against a victim with work: a cross-socket steal arms the
	// victim's robbedFrom with the thief's socket.
	victim := p.workers[8] // socket 2
	victim.deque.Push(&taskNode{})
	if tk := w.trySteal(); tk == nil {
		t.Fatal("trySteal found nothing with a non-empty remote victim")
	}
	if rf := victim.robbedFrom.Load(); rf != int32(w.socket) {
		t.Fatalf("victim robbedFrom = %d, want thief socket %d", rf, w.socket)
	}
	if l, r := w.st.localSteals.Load(), w.st.remoteSteals.Load(); l != 0 || r != 1 {
		t.Fatalf("locality counters after one remote steal: local=%d remote=%d, want 0/1", l, r)
	}
}

// TestTryStealRemoteBackoff: a full failed scan with remote victims
// present arms the bounded backoff — the next remoteStealBackoff scans
// stay same-socket only — and a flat topology never arms it.
func TestTryStealRemoteBackoff(t *testing.T) {
	tp := topo.Uniform(8, 4)
	p := newStoppedProgram(t, 8, tp)
	w := p.workers[0]
	if w.trySteal() != nil {
		t.Fatal("steal succeeded on an empty system")
	}
	if w.remoteSkip != remoteStealBackoff {
		t.Fatalf("remoteSkip = %d after a failed full scan, want %d", w.remoteSkip, remoteStealBackoff)
	}
	// During backoff a remote victim's work is invisible...
	remote := p.workers[5]
	remote.deque.Push(&taskNode{})
	if w.trySteal() != nil {
		t.Fatal("backed-off scan reached a remote victim")
	}
	if w.remoteSkip != remoteStealBackoff-1 {
		t.Fatalf("remoteSkip = %d, want %d", w.remoteSkip, remoteStealBackoff-1)
	}
	// ...but a local victim's is not (and the successful local-only scan
	// consumes the last skip).
	local := p.workers[1]
	local.deque.Push(&taskNode{})
	if w.trySteal() == nil {
		t.Fatal("backed-off scan missed a local victim")
	}
	if w.remoteSkip != 0 {
		t.Fatalf("remoteSkip = %d, want 0", w.remoteSkip)
	}
	// The backoff has expired: the remote task is reachable again.
	if w.trySteal() == nil {
		t.Fatal("full scan after backoff missed the remote victim")
	}

	// Flat topology: failed scans never arm the backoff.
	pf := newStoppedProgram(t, 4, nil)
	wf := pf.workers[0]
	for i := 0; i < 5; i++ {
		if wf.trySteal() != nil {
			t.Fatal("steal succeeded on an empty flat system")
		}
	}
	if wf.remoteSkip != 0 {
		t.Fatalf("flat remoteSkip = %d, want 0", wf.remoteSkip)
	}
}

// TestLocalityCountersEndToEnd runs a real steal-heavy workload on a
// two-socket topology and checks the counter plumbing: local+remote
// steals never exceed total steals (injection steals carry no locality
// label), stats surface through Stats(), and a flat run reports zero
// remote steals.
func TestLocalityCountersEndToEnd(t *testing.T) {
	run := func(tp *topo.Topology) Stats {
		sys, err := NewSystem(Config{Cores: 4, Programs: 1, Policy: ABP, Topology: tp})
		if err != nil {
			t.Fatalf("NewSystem: %v", err)
		}
		defer sys.Close()
		p, err := sys.NewProgram("loc")
		if err != nil {
			t.Fatalf("NewProgram: %v", err)
		}
		var leaves atomic.Int64
		var tree func(d int) Task
		tree = func(d int) Task {
			if d == 0 {
				return func(*Ctx) { leaves.Add(1) }
			}
			child := tree(d - 1)
			return func(c *Ctx) {
				c.Spawn(child)
				c.Spawn(child)
				c.Sync()
			}
		}
		for i := 0; i < 20; i++ {
			if err := p.Run(tree(8)); err != nil {
				t.Fatalf("Run: %v", err)
			}
		}
		return p.Stats()
	}

	st := run(topo.Uniform(4, 2))
	if st.LocalSteals+st.RemoteSteals > st.Steals {
		t.Fatalf("local %d + remote %d > total steals %d", st.LocalSteals, st.RemoteSteals, st.Steals)
	}
	t.Logf("two-socket: steals=%d local=%d remote=%d", st.Steals, st.LocalSteals, st.RemoteSteals)

	flat := run(nil)
	if flat.RemoteSteals != 0 {
		t.Fatalf("flat topology reported %d remote steals", flat.RemoteSteals)
	}
}
