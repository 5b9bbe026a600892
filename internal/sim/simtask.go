package sim

import "dws/internal/task"

// simTask is the per-run execution state of one task.Node. Graphs are
// immutable; a fresh simTask tree grows lazily as nodes are spawned, so
// the same Graph can be executed repeatedly (the Fig. 3 methodology).
type simTask struct {
	node    *task.Node
	stage   int      // index of the stage currently executing or joining
	pending int      // unfinished children of the current stage
	parent  *simTask // nil for the root; the next free task while recycled
}

// stageWork returns the serial work of the current stage in µs.
func (t *simTask) stageWork() int64 {
	return t.node.Stages[t.stage].Work
}

// stageChildren returns the children spawned by the current stage.
func (t *simTask) stageChildren() []*task.Node {
	return t.node.Stages[t.stage].Children
}

// taskSlabSize is how many simTasks one slab allocation holds.
const taskSlabSize = 256

// newTask returns a simTask for node under parent, recycled from a
// finished one when possible and carved from the machine's current slab
// otherwise: a replay spawns one per graph node, and only as many are
// live at once as the deepest backlog holds.
func (m *Machine) newTask(node *task.Node, parent *simTask) *simTask {
	t := m.freeTasks
	if t != nil {
		m.freeTasks = t.parent
	} else {
		if len(m.taskSlab) == 0 {
			m.taskSlab = make([]simTask, taskSlabSize)
		}
		t = &m.taskSlab[0]
		m.taskSlab = m.taskSlab[1:]
	}
	*t = simTask{node: node, parent: parent}
	return t
}

// freeTask recycles a finished task. Nothing may hold t any more: its
// children have all completed and been recycled before it.
func (m *Machine) freeTask(t *simTask) {
	t.node = nil
	t.parent = m.freeTasks
	m.freeTasks = t
}

// taskQueue is a task pool with LIFO pop at the back and FIFO steal at the
// front — a worker's deque, or a program's central pool in work-sharing
// mode (which only pushes and steals). Stealing advances a head index
// instead of re-slicing, so the backing array is reused once it has grown
// to the pool's high-water mark.
type taskQueue struct {
	buf  []*simTask
	head int
}

func (q *taskQueue) len() int { return len(q.buf) - q.head }

func (q *taskQueue) push(t *simTask) {
	if q.head > 0 && len(q.buf) == cap(q.buf) && q.head >= len(q.buf)/2 {
		// Full, and at least half of it is stolen-from space: slide the
		// live tasks down rather than grow.
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf, q.head = q.buf[:n], 0
	}
	q.buf = append(q.buf, t)
}

// pop removes and returns the most recently pushed task, or nil.
func (q *taskQueue) pop() *simTask {
	n := len(q.buf)
	if n == q.head {
		return nil
	}
	t := q.buf[n-1]
	q.buf[n-1] = nil
	q.buf = q.buf[:n-1]
	q.drained()
	return t
}

// steal removes and returns the oldest task, or nil.
func (q *taskQueue) steal() *simTask {
	if len(q.buf) == q.head {
		return nil
	}
	t := q.buf[q.head]
	q.buf[q.head] = nil
	q.head++
	q.drained()
	return t
}

// drained rewinds an emptied queue to the start of its backing array.
func (q *taskQueue) drained() {
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
}
