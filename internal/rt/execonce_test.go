package rt

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestWorkloadExactlyOnce executes a fork-join tree under a non-sleeping
// and a sleeping policy and checks exactly-once execution end to end: the
// user counter and the Spawns==Execs conservation.
func TestWorkloadExactlyOnce(t *testing.T) {
	for _, pol := range []Policy{ABP, DWS} {
		t.Run(pol.String(), func(t *testing.T) {
			s, err := NewSystem(Config{
				Cores: 4, Programs: 1, Policy: pol,
				CoordPeriod: 2 * time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			p, err := s.NewProgram("main")
			if err != nil {
				t.Fatal(err)
			}
			var total atomic.Int64
			root, want := parallelSum(&total, 10)
			for run := 0; run < 3; run++ {
				total.Store(0)
				if err := p.Run(root); err != nil {
					t.Fatal(err)
				}
				if got := total.Load(); got != want {
					t.Fatalf("run %d: sum = %d, want %d (duplicate or lost execution)", run, got, want)
				}
			}
			st := p.Stats()
			if st.Spawns != st.Execs {
				t.Fatalf("conservation broken: %d spawns, %d execs", st.Spawns, st.Execs)
			}
		})
	}
}

// TestSingleElementExecOnceStress holds the deque where its owner and its
// thieves race hardest: one spawner repeatedly queues a single task while
// the program's three other workers act as thieves, so the deque spends
// its life at one element — the case where Pop and Steal contend on the
// same CAS — and the task's node is recycled every round. Thousands of
// rounds; every task must run exactly once, and a node pointer a losing
// thief loaded must never corrupt the node's next incarnation (which would
// show up as a wrong counter, a conservation violation, or a -race report
// on the free-list).
func TestSingleElementExecOnceStress(t *testing.T) {
	s, err := NewSystem(Config{Cores: 4, Programs: 1, Policy: ABP})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	p, err := s.NewProgram("stress")
	if err != nil {
		t.Fatal(err)
	}

	const rounds = 4000
	var executed atomic.Int64
	root := func(c *Ctx) {
		for i := 0; i < rounds; i++ {
			c.Spawn(func(*Ctx) { executed.Add(1) })
			// Sync every round keeps the deque at ≤1 element, maximising
			// the owner-vs-thieves race on the last element (and cycling
			// each node through execute → free-list → reuse every round).
			// The yield every other round lets thieves reach the element
			// first, so nodes also migrate (and recycle) across workers.
			if i&1 == 0 {
				runtime.Gosched()
			}
			c.Sync()
		}
	}
	if err := p.Run(root); err != nil {
		t.Fatal(err)
	}
	if got := executed.Load(); got != rounds {
		t.Fatalf("exactly-once broken: %d executions for %d spawned tasks", got, rounds)
	}
	st := p.Stats()
	if st.Spawns != st.Execs {
		t.Fatalf("conservation broken: %d spawns, %d execs", st.Spawns, st.Execs)
	}
	t.Logf("%d rounds, %d steals", rounds, st.Steals)
}
