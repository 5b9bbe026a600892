package sim

// evKind says what an event does when it fires. The scheduling actions
// that make up nearly all of a replay's events are typed — the worker or
// core they act on and the generation they were armed at travel in the
// event itself — so arming one allocates nothing. Rare machine-level
// actions (arbiter and coordinator ticks, sampling, program and job
// arrivals) carry a closure instead.
type evKind uint8

const (
	evFn          evKind = iota // run fn
	evSegmentDone               // w finishes its current segment
	evNotify                    // a push pokes spinning w into a steal retry
	evSpinPark                  // w's drought reached T_SLEEP: park
	evSpinRecheck               // w's periodic rescan of its victims
	evWake                      // w's wake latency has elapsed
	evQuantum                   // c's scheduler tick
)

// event is one scheduled action. Events with equal timestamps fire in
// scheduling order (seq), which keeps simulations deterministic. An
// open-loop arrival is the one event whose seq is reserved before it is
// armed (see RunOpen).
type event struct {
	at  int64
	seq int64
	// gen is w.gen when the event was armed; preemption, sleep and
	// interrupts advance w.gen, which turns the event stale. A stale event
	// still pops and still counts in Results.Events.
	gen  int64
	w    *Worker
	c    *Core
	fn   func()
	kind evKind
}

// eventHeap is a binary min-heap on (at, seq), held by value: pushing
// neither boxes the event nor allocates once the slice has grown to the
// replay's high-water mark. seq is unique, so the order events pop in does
// not depend on the heap's internal layout.
type eventHeap []event

// before reports whether a fires before b.
func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	s := *h
	// Sift up with a hole: parents slide down until e's place is found.
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(&s[parent]) {
			break
		}
		s[i] = s[parent]
		i = parent
	}
	s[i] = e
}

// pop removes and returns the earliest event. Pre: len(*h) > 0.
func (h *eventHeap) pop() event {
	s := *h
	top := s[0]
	n := len(s) - 1
	e := s[n]
	s[n] = event{} // drop the pointers the vacated slot holds
	s = s[:n]
	*h = s
	if n == 0 {
		return top
	}
	// Sift the former last event down from the root, again with a hole.
	i := 0
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && s[r].before(&s[child]) {
			child = r
		}
		if !s[child].before(&e) {
			break
		}
		s[i] = s[child]
		i = child
	}
	s[i] = e
	return top
}

// arm enqueues e to fire at absolute time at (clamped to now), after
// everything already armed for that time.
func (m *Machine) arm(at int64, e event) {
	m.seq++
	m.armSeq(at, m.seq, e)
}

// armSeq is arm under a seq drawn earlier: the event takes the place among
// equal timestamps it would have had if it had been armed when the seq was
// reserved. RunOpen's arrivals use it.
func (m *Machine) armSeq(at, seq int64, e event) {
	if at < m.now {
		at = m.now
	}
	e.at, e.seq = at, seq
	m.events.push(e)
}

// schedule enqueues fn to run at absolute time at (clamped to now).
func (m *Machine) schedule(at int64, fn func()) {
	m.arm(at, event{kind: evFn, fn: fn})
}

// after enqueues fn to run delay µs from now.
func (m *Machine) after(delay int64, fn func()) {
	m.schedule(m.now+delay, fn)
}

// step pops the earliest event, advances the clock to it and fires it.
// Pre: the heap is not empty.
func (m *Machine) step() error {
	e := m.events.pop()
	m.now = e.at
	m.nEv++
	if m.nEv > m.cfg.MaxEvents {
		return ErrExploded
	}
	m.fire(&e)
	if m.cfg.Debug && !m.stopped {
		m.verify()
	}
	return nil
}

// fire dispatches one popped event.
func (m *Machine) fire(e *event) {
	w := e.w
	switch e.kind {
	case evFn:
		e.fn()
	case evSegmentDone:
		if w.gen == e.gen {
			m.onSegmentDone(w)
		}
	case evNotify:
		w.notifyPending = false
		w.prog.allPoked = false
		fallthrough // to another look for work
	case evSpinRecheck:
		if m.spinEnds(w, e.gen) {
			w.setState(wRunning)
			m.getWork(w)
		}
	case evSpinPark:
		if m.spinEnds(w, e.gen) {
			m.trace("p%d w%d park(spin) fs=%d", w.prog.id, w.id, w.failedSteals)
			m.parkWorker(w, true)
		}
	case evWake:
		m.wakeArrived(w)
	case evQuantum:
		m.quantumFire(e.c)
	}
}

// spinEnds closes w's spin on behalf of an event armed at generation gen:
// if the spin it belongs to is still going, the elapsed time is folded
// into the accounting and the generation advances (so the spin's other
// pending events go stale). It reports whether the event is still live.
func (m *Machine) spinEnds(w *Worker, gen int64) bool {
	if w.state != wSpinning || w.gen != gen {
		return false
	}
	m.endSpin(w)
	w.gen++
	return true
}
