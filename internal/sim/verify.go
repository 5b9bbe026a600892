package sim

import "fmt"

// verify checks machine-wide invariants. It runs after every event when
// Config.Debug is set and panics on the first violation — a structural
// bug detector for tests.
func (m *Machine) verify() {
	// Per-core run-queue consistency.
	for _, c := range m.cores {
		if len(c.runq) == 0 {
			if c.cur != nil {
				panic(fmt.Sprintf("sim: core %d has cur but empty runq", c.id))
			}
			continue
		}
		if c.cur != c.runq[0] {
			panic(fmt.Sprintf("sim: core %d cur is not runq head", c.id))
		}
		seen := map[*Worker]bool{}
		for _, w := range c.runq {
			if w.id != c.id {
				panic(fmt.Sprintf("sim: worker affined to %d is in core %d's runq", w.id, c.id))
			}
			if seen[w] {
				panic(fmt.Sprintf("sim: worker duplicated in core %d's runq", c.id))
			}
			seen[w] = true
			switch w.state {
			case wReady, wRunning, wSpinning:
			default:
				panic(fmt.Sprintf("sim: %v worker in core %d's runq", w.state, c.id))
			}
		}
	}

	// Per-program active-count accounting and sleeping-state checks.
	for _, p := range m.progs {
		active := 0
		var census [numWStates]int
		for _, w := range p.workers {
			census[w.state]++
			if p.allPoked && w.state == wSpinning && !w.notifyPending {
				panic(fmt.Sprintf("sim: p%d/w%d spins unnotified while allPoked", p.id, w.id))
			}
			switch w.state {
			case wWaking, wReady, wRunning, wSpinning:
				active++
			case wSleeping, wOff:
				if w.cur != nil {
					panic(fmt.Sprintf("sim: %v worker p%d/w%d holds a task", w.state, p.id, w.id))
				}
			}
		}
		if active != p.active {
			panic(fmt.Sprintf("sim: p%d active count %d, tracked %d", p.id, active, p.active))
		}
		if census != p.inState {
			panic(fmt.Sprintf("sim: p%d state census %v, tracked %v", p.id, census, p.inState))
		}
	}

	// DWS exclusivity: each core hosts at most one scheduled-or-queued
	// worker whose program occupies the core; any other resident must be
	// pending eviction (its program no longer occupies the core).
	if m.table != nil {
		for _, c := range m.cores {
			occupants := 0
			for _, p := range m.progs {
				w := p.workers[c.id]
				switch w.state {
				case wReady, wRunning, wSpinning:
					if m.table.Occupant(c.id) == p.id {
						occupants++
					}
				}
			}
			if occupants > 1 {
				panic(fmt.Sprintf("sim: core %d hosts %d occupying workers", c.id, occupants))
			}
		}
	}
}
