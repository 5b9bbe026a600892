package rt

import (
	"sync/atomic"
	"testing"

	"dws/internal/arbiter"
	"dws/internal/topo"
)

// newStoppedProgram builds a program on the given topology and shuts its
// goroutines down so the white-box tests below can drive trySteal
// single-threadedly without racing the loop. The victim order itself is
// arbiter.Order's, tested there.
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
	all := make([]int, cores)
	for c := range all {
		all[c] = c
	}
	for _, w := range p.workers {
		// A fresh order: the loop may have stopped mid-pass or mid-backoff.
		w.steal = arbiter.NewOrder(p.sys.cfg.Topology, false, all, w.id)
	}
	return p
}

// TestStealBackBias: a cross-socket steal leaves the thief's socket
// with the victim and counts as remote; the victim hands the bias to its
// order at its next attempt, which then starts the remote segment on the
// thief's socket.
func TestStealBackBias(t *testing.T) {
	const cores = 12
	tp := topo.Uniform(cores, 4) // sockets {0-3} {4-7} {8-11}
	p := newStoppedProgram(t, cores, tp)
	thief, victim := p.workers[0], p.workers[8] // sockets 0 and 2

	victim.deque.Push(&taskNode{})
	if thief.trySteal() == nil {
		t.Fatal("a first full pass missed the remote victim's task")
	}
	if rf := victim.robbedFrom.Load(); rf != int32(thief.socket) {
		t.Fatalf("victim robbedFrom = %d, want thief socket %d", rf, thief.socket)
	}
	if l, r := thief.st.localSteals.Load(), thief.st.remoteSteals.Load(); l != 0 || r != 1 {
		t.Fatalf("locality counters after one remote steal: local=%d remote=%d, want 0/1", l, r)
	}

	// The victim's next full pass reaches socket 0 before socket 1.
	p.workers[1].deque.Push(&taskNode{}) // socket 0
	p.workers[4].deque.Push(&taskNode{}) // socket 1
	if victim.trySteal() == nil {
		t.Fatal("trySteal found nothing with two non-empty remote victims")
	}
	if victim.robbedFrom.Load() != -1 {
		t.Fatal("the bias was not handed to the victim's order")
	}
	if p.workers[1].deque.Steal() != nil {
		t.Fatal("steal-back took socket 1's task before socket 0's")
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
