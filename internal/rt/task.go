package rt

import (
	"runtime"
	"sync/atomic"
)

// Task is one unit of fork-join work. It may Spawn children through its
// Ctx; all spawned children are joined when the task returns (an implicit
// sync) or at an explicit Ctx.Sync.
type Task func(*Ctx)

// Run calls t, so a plain func is a Runner.
func (t Task) Run(c *Ctx) { t(c) }

// Runner is what the scheduler queues and executes. A Task is one; so is
// a pointer into a slab of prebuilt tree nodes (kernels.MergesortTask) —
// a whole spawn tree in one allocation instead of a closure per node.
// Both are pointer-shaped, so the interface holds either without allocating.
type Runner interface{ Run(*Ctx) }

// frame is a join counter: one per executing task instance. pending counts
// the frame's outstanding spawned children. The root frame — one per
// program, reused by every Run — additionally carries a done channel Run
// waits on.
//
// Non-root frames live embedded in pooled Ctx objects and are reused
// across tasks without any reset: a recycled frame's pending is provably
// 0 (Sync returned) and done stays nil for its whole life, so the only
// post-decrement access a finishing child can make — the done read below,
// reached solely by the child that hit 0 — touches a field nothing ever
// writes.
type frame struct {
	pending atomic.Int64
	done    chan struct{} // non-nil only for root frames; capacity 1
}

// childDone reports a finished child; the last child of a root frame
// signals done. The send never blocks: a run has one last child, and Run
// takes its token before the next run can start.
func (f *frame) childDone() {
	if f.pending.Add(-1) == 0 && f.done != nil {
		f.done <- struct{}{}
	}
}

// taskNode is a queued task: its body plus the parent frame it reports
// completion to.
type taskNode struct {
	fn     Runner
	parent *frame
}

// Ctx is the worker-side handle a Task uses to spawn and join children.
// A Ctx is only valid for the duration of its task and must not be shared
// across goroutines.
type Ctx struct {
	w   *worker
	f   frame
	rec *recCtx // non-nil during a RecordGraph run
}

// Worker returns the executing worker's index (its core slot), or -1
// during a recording run.
func (c *Ctx) Worker() int {
	if c.w == nil {
		return -1
	}
	return c.w.id
}

// Program returns the program this task belongs to, or nil during a
// recording run.
func (c *Ctx) Program() *Program {
	if c.w == nil {
		return nil
	}
	return c.w.p
}

// Spawn queues fn as a child of the current task. The child may run on
// any worker of the same program. Steady-state it allocates nothing: the
// taskNode comes from the worker's free-list (internal/rt/pool.go).
func (c *Ctx) Spawn(fn Task) { c.SpawnRunner(fn) }

// SpawnRunner is Spawn for a child that is not a func value.
func (c *Ctx) SpawnRunner(r Runner) {
	if c.rec != nil {
		c.rec.recSpawn(r)
		return
	}
	c.f.pending.Add(1)
	w := c.w
	w.st.spawns.Add(1)
	w.deque.Push(w.getNode(r, &c.f))
}

// Sync blocks until every task spawned so far by this Ctx has finished.
// While waiting, the worker executes queued tasks (its own first, then
// stolen ones), so Sync makes progress instead of idling. Steal attempts
// here feed the same accounting as worker.loop — successes reset the
// worker's drought window, failures extend it and count toward the
// program's failed-steal total — so sync-heavy workloads report their
// steal pressure to the coordinator like loop-driven stealing does.
func (c *Ctx) Sync() {
	if c.rec != nil {
		c.rec.recSync()
		return
	}
	w := c.w
	for c.f.pending.Load() > 0 {
		if t := w.deque.Pop(); t != nil {
			w.failedSteals = 0
			w.execute(t)
			continue
		}
		if t := w.trySteal(); t != nil {
			w.failedSteals = 0
			w.st.steals.Add(1)
			w.execute(t)
			continue
		}
		w.failedSteals++
		w.st.failedSteals.Add(1)
		runtime.Gosched()
	}
}

// execute runs one task to completion, including its implicit final sync,
// then reports to the parent frame. The node is recycled before the task
// body runs (its fields are copied out first — see putNode) and the Ctx
// after the final sync proves the frame quiescent; steady-state neither
// allocates.
func (w *worker) execute(t *taskNode) {
	w.st.execs.Add(1)
	fn, parent := t.fn, t.parent
	if t != &w.p.rootNode { // the root's node belongs to the program, not the pools
		w.putNode(t)
	}
	c := w.getCtx()
	fn.Run(c)
	c.Sync()
	w.putCtx(c)
	parent.childDone()
}
