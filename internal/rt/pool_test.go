package rt

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestNodePoolOverflowRing drives the free-list/overflow protocol
// synchronously on an unstarted program (no worker goroutines, so the
// test goroutine owns every pool): putNode fills the local list to its
// cap and spills to the shared ring; getNode drains local first, ring
// second, and falls back to the allocator without ever handing out the
// same node twice.
func TestNodePoolOverflowRing(t *testing.T) {
	sys, err := NewSystem(Config{Cores: 2, Programs: 1, Policy: ABP})
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	defer sys.Close()
	p := newProgram(sys, "pool", 0) // never started

	w := p.workers[0]
	const spill = 10
	nodes := make([]*taskNode, nodeFreeMax+spill)
	for i := range nodes {
		nodes[i] = &taskNode{}
		w.putNode(nodes[i])
	}
	if got := len(w.pool.nodes); got != nodeFreeMax {
		t.Fatalf("local free-list holds %d nodes, want cap %d", got, nodeFreeMax)
	}
	if got := p.nodeOverflow.Len(); got != spill {
		t.Fatalf("overflow ring holds %d nodes, want %d", got, spill)
	}

	seen := make(map[*taskNode]bool, len(nodes))
	for i := 0; i < nodeFreeMax+spill; i++ {
		n := w.getNode(nil, nil)
		if seen[n] {
			t.Fatalf("getNode returned node %p twice", n)
		}
		seen[n] = true
	}
	if got := p.nodeOverflow.Len(); got != 0 {
		t.Fatalf("overflow ring holds %d nodes after drain, want 0", got)
	}
	// Every recycled node came back before the allocator was asked.
	for _, n := range nodes {
		if !seen[n] {
			t.Fatalf("recycled node %p was never reissued", n)
		}
	}

	// A worker with empty lists pulls from the shared ring (cross-worker
	// rebalancing) before allocating.
	w2 := p.workers[1]
	n := &taskNode{}
	p.nodeOverflow.TryPush(n)
	if got := w2.getNode(nil, nil); got != n {
		t.Fatalf("getNode on empty local list = %p, want ring node %p", got, n)
	}
}

// TestCtxPoolReuse pins Ctx recycling: a released Ctx is reissued with
// its worker binding intact and its frame quiescent.
func TestCtxPoolReuse(t *testing.T) {
	sys, err := NewSystem(Config{Cores: 1, Programs: 1, Policy: ABP})
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	defer sys.Close()
	p := newProgram(sys, "ctx", 0)

	w := p.workers[0]
	c1 := w.getCtx()
	if c1.w != w {
		t.Fatalf("getCtx bound to worker %v, want %v", c1.w, w)
	}
	w.putCtx(c1)
	c2 := w.getCtx()
	if c2 != c1 {
		t.Fatalf("getCtx = %p, want recycled %p", c2, c1)
	}
	if got := c2.f.pending.Load(); got != 0 {
		t.Fatalf("recycled Ctx frame pending = %d, want 0", got)
	}
}

// TestAsleepLaunchTakesEarlyWake: a wake that lands between launch's
// state store and the worker goroutine's first instruction must still be
// consumed by that worker's initial block. Left in the channel, the token
// makes the worker's next park return at once — awake while its state
// says asleep, which is what schedcheck's sleep-wake alternation caught
// 1 run in 30. The program is unstarted, so the test plays launch itself
// and holds the race open.
func TestAsleepLaunchTakesEarlyWake(t *testing.T) {
	sys, err := NewSystem(Config{Cores: 2, Programs: 1, Policy: DWSNC})
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	defer sys.Close()
	p := newProgram(sys, "early", 0) // never started
	w := p.workers[1]

	w.state.Store(stateSleeping) // launch(w, stateSleeping), up to its go statement
	if !p.wake(w) {
		t.Fatal("wake of a worker launched asleep refused")
	}
	p.wg.Add(1)
	go w.loop(true)

	// The worker takes the token, finds nothing to steal and parks for real.
	for deadline := time.Now().Add(5 * time.Second); w.state.Load() != stateSleeping || p.active.Load() != 0; {
		if time.Now().After(deadline) {
			t.Fatalf("worker never parked: state %d, active %d", w.state.Load(), p.active.Load())
		}
		runtime.Gosched()
	}
	time.Sleep(time.Millisecond) // a stale token would have it running again by now
	if n := len(w.wakeCh); n != 0 {
		t.Errorf("%d wake token(s) left after the initial block consumed one", n)
	}
	if got := p.Stats().Sleeps; got != 1 {
		t.Errorf("Sleeps = %d, want 1: the park returned without a wake", got)
	}

	p.shutdown.Store(true)
	p.wake(w)
	p.wg.Wait()
}

// TestSyncStealAccounting pins the Ctx.Sync accounting satellite: steal
// attempts inside Sync must feed the same counters as worker.loop —
// failures into failedSteals (program total and drought window alike),
// successes into steals with a drought reset. The program is unstarted,
// so the Sync goroutine and the test are the only actors.
func TestSyncStealAccounting(t *testing.T) {
	sys, err := NewSystem(Config{Cores: 2, Programs: 1, Policy: ABP})
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	defer sys.Close()
	p := newProgram(sys, "sync", 0)

	w := p.workers[0]
	c := w.getCtx()
	c.f.pending.Store(1) // one outstanding "child" Sync must wait on
	done := make(chan struct{})
	go func() {
		c.Sync()
		close(done)
	}()

	// Sync finds both w's deque and the victim empty: every loop pass is
	// one failed steal attempt.
	deadline := time.Now().Add(10 * time.Second)
	for w.st.failedSteals.Load() < 3 {
		if time.Now().After(deadline) {
			t.Fatal("Sync recorded no failed steal attempts")
		}
		runtime.Gosched()
	}

	// Offer the join's missing child on the victim's deque; Sync must
	// steal and execute it, which drives pending to 0.
	p.workers[1].deque.Push(&taskNode{fn: Task(func(*Ctx) {}), parent: &c.f})
	<-done

	st := p.Stats()
	if st.Steals != 1 {
		t.Errorf("Steals = %d, want 1 (the Sync steal)", st.Steals)
	}
	if st.FailedSteals < 3 {
		t.Errorf("FailedSteals = %d, want ≥ 3", st.FailedSteals)
	}
	if st.Execs != 1 {
		t.Errorf("Execs = %d, want 1", st.Execs)
	}
	// The successful steal reset the drought window (happens-before via
	// the done channel).
	if w.failedSteals != 0 {
		t.Errorf("worker drought window = %d after successful Sync steal, want 0", w.failedSteals)
	}
}

// TestSpawnStormStolenCompletion is the -race storm for the free-lists:
// a barrier pair forces at least one task to complete on a non-owner
// worker every run (recycling its node into the thief's list), and a
// gated 4096-leaf storm holds every node outstanding at once, so
// recycling provably exceeds the local list caps and exercises the
// shared overflow ring. Conservation (spawns == execs == leaves run)
// must hold across repeated runs over the same pools.
func TestSpawnStormStolenCompletion(t *testing.T) {
	sys, err := NewSystem(Config{Cores: 4, Programs: 1, Policy: ABP})
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	defer sys.Close()
	p, err := sys.NewProgram("storm")
	if err != nil {
		t.Fatalf("NewProgram: %v", err)
	}

	const (
		runs  = 8
		storm = 4096
	)
	var (
		leaves   atomic.Int64
		entered  atomic.Int32
		released atomic.Bool
	)
	// Both barrier tasks must be in flight at once before either returns,
	// and the owner can execute at most one of them — so one completes on
	// a thief, every run.
	barrier := func(*Ctx) {
		entered.Add(1)
		for entered.Load() < 2 {
			runtime.Gosched()
		}
	}
	leaf := func(*Ctx) {
		for !released.Load() {
			runtime.Gosched()
		}
		leaves.Add(1)
	}
	root := func(c *Ctx) {
		entered.Store(0)
		released.Store(false)
		c.Spawn(barrier)
		c.Spawn(barrier)
		c.Sync()
		// Leaves block until the whole storm is spawned, pinning all
		// storm nodes live simultaneously (minus the few thieves sit in).
		for i := 0; i < storm; i++ {
			c.Spawn(leaf)
		}
		released.Store(true)
	}

	for r := 0; r < runs; r++ {
		if err := p.Run(root); err != nil {
			t.Fatalf("run %d: %v", r, err)
		}
	}

	if got := leaves.Load(); got != runs*storm {
		t.Errorf("leaves run = %d, want %d", got, runs*storm)
	}
	st := p.Stats()
	want := int64(runs * (storm + 3)) // root injection + 2 barriers + leaves
	if st.Spawns != want || st.Execs != want {
		t.Errorf("Spawns/Execs = %d/%d, want %d/%d", st.Spawns, st.Execs, want, want)
	}
	// ≥ 4093 nodes were recycled while the 4×256 local lists can absorb
	// at most 1024: the ring must have been fed.
	if got := p.nodeOverflow.Len(); got == 0 {
		t.Error("overflow ring empty after storm, want spilled nodes")
	}
}
