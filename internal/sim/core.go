package sim

// Core is one simulated hardware core: a round-robin run queue of resident
// runnable workers, a scheduling-quantum tick, and private-cache warmth
// state.
type Core struct {
	id     int
	socket int

	// runq holds the resident runnable workers; runq[0] is the scheduled
	// one whenever cur != nil.
	runq []*Worker
	cur  *Worker

	quantumArmed bool
	lastRun      *Worker

	// cacheProg is the program whose data is warm in this core's private
	// caches; coldUntil is when the current occupant finishes refilling.
	cacheProg int32
	coldUntil int64

	busyUS    int64 // wall time with a worker scheduled (accounting)
	busySince int64 // valid while cur != nil
}

// dispatch schedules the head of the run queue, if any. Pre: c.cur == nil.
func (m *Machine) dispatch(c *Core) {
	if c.cur != nil {
		panic("sim: dispatch with a worker already scheduled")
	}
	if len(c.runq) == 0 {
		return
	}
	w := c.runq[0]
	c.cur = w
	c.busySince = m.now
	if c.lastRun != w {
		w.pendingLatency += m.cfg.CtxSwitchUS
		c.lastRun = w
	}
	m.armQuantum(c)
	w.setState(wRunning)
	if w.cur != nil {
		m.scheduleSegment(w)
		return
	}
	m.getWork(w)
}

// unschedule accounts for the current worker's core occupancy and clears
// cur. It does not touch the run queue.
func (c *Core) unschedule(now int64) {
	if c.cur != nil {
		c.busyUS += now - c.busySince
		c.cur = nil
	}
}

// armQuantum starts the periodic scheduler tick for a multi-occupant core.
// The tick is per-core and keeps firing while the core stays shared.
func (m *Machine) armQuantum(c *Core) {
	if c.quantumArmed || len(c.runq) < 2 {
		return
	}
	c.quantumArmed = true
	m.arm(m.now+m.cfg.QuantumUS, event{kind: evQuantum, c: c})
}

// quantumFire preempts the scheduled worker and rotates the run queue.
func (m *Machine) quantumFire(c *Core) {
	c.quantumArmed = false
	if len(c.runq) < 2 {
		return
	}
	if c.cur != nil {
		m.preempt(c.cur)
		c.unschedule(m.now)
	}
	c.rotate()
	m.dispatch(c)
}

// rotate moves the head of the run queue to its tail, in place.
func (c *Core) rotate() {
	head := c.runq[0]
	copy(c.runq, c.runq[1:])
	c.runq[len(c.runq)-1] = head
}

// preempt stops w's current activity, folding partial progress back into
// the worker so it can resume later. w must be its core's scheduled worker.
func (m *Machine) preempt(w *Worker) {
	switch w.state {
	case wRunning:
		if w.cur != nil {
			m.absorbProgress(w)
		}
	case wSpinning:
		m.endSpin(w)
	}
	w.gen++
	w.setState(wReady)
}

// removeFromRunq deletes w from its core's run queue (any position).
func (c *Core) removeFromRunq(w *Worker) {
	for i, x := range c.runq {
		if x == w {
			c.runq = append(c.runq[:i], c.runq[i+1:]...)
			return
		}
	}
	panic("sim: worker not in run queue")
}

// absorbProgress updates w.remaining for the wall time elapsed since the
// segment was scheduled, using the rate parameters frozen at schedule time.
func (m *Machine) absorbProgress(w *Worker) {
	elapsed := m.now - w.segEffStart
	if elapsed <= 0 {
		// The latency prefix was not even consumed; carry the rest over.
		w.pendingLatency = -elapsed
		return
	}
	w.pendingLatency = 0
	done := workFor(elapsed, w.segEffStart, w.segColdUntil, w.segWarmRate, w.segColdFactor)
	w.remaining -= done
	if w.remaining < 0 {
		w.remaining = 0
	}
	w.prog.stats.WorkUS += done
}

// wallFor converts work µs into wall µs for a segment starting at start
// with the given frozen cache parameters.
func wallFor(work float64, start, coldUntil int64, warmRate, coldFactor float64) float64 {
	if work <= 0 {
		return 0
	}
	coldRate := warmRate * coldFactor
	if start >= coldUntil {
		return work * warmRate
	}
	coldWall := float64(coldUntil - start)
	coldWork := coldWall / coldRate
	if work <= coldWork {
		return work * coldRate
	}
	return coldWall + (work-coldWork)*warmRate
}

// workFor is the inverse of wallFor: how much work fits in elapsed wall µs.
func workFor(elapsed int64, start, coldUntil int64, warmRate, coldFactor float64) float64 {
	if elapsed <= 0 {
		return 0
	}
	coldRate := warmRate * coldFactor
	if start >= coldUntil {
		return float64(elapsed) / warmRate
	}
	coldWall := coldUntil - start
	if elapsed <= coldWall {
		return float64(elapsed) / coldRate
	}
	return float64(coldWall)/coldRate + float64(elapsed-coldWall)/warmRate
}
