package sim

import "dws/internal/arbiter"

// The simulator's model of QoS core arbitration (Config.ArbiterPeriodUS):
// the machine runs the very same internal/arbiter.Arbiter the live
// runtime uses, ticked as a machine-level event, feeding it each
// program's simulated demand (queued tasks, active workers) and declared
// weight. Published entitlements land in the in-memory core table, and
// the coordinator's passes and regrab derive the home block from there
// (homeOf, its crew's Home) — so the sim
// and live substrates disagree only in their demand measurements, never
// in arbitration arithmetic.

// homeOf returns p's current home block (arbiter.Home, the derivation
// rt.Program.homeCores makes): the entitled block once the arbiter has
// published, placed within a socket on a multi-socket machine unless
// Config.NoLocality; the static even split otherwise. A flat block is
// written into p.homeBuf, read before the next call.
func (m *Machine) homeOf(p *Program) []int {
	return arbiter.Home(m.table, m.topo, p.idx, p.home, !m.cfg.NoLocality, &p.homeBuf)
}

// weightOf returns p's arbitration and admission weight (1 without
// Config.Weights).
func (m *Machine) weightOf(p *Program) float64 {
	if m.cfg.Weights == nil {
		return 1
	}
	return m.cfg.Weights[p.idx]
}

// scheduleArbiter arms the next machine-level arbiter tick.
func (m *Machine) scheduleArbiter() {
	m.after(m.cfg.ArbiterPeriodUS, func() { m.arbiterTick() })
}

// arbiterTick assembles one round of demand inputs (in program order, for
// determinism) and lets the arbiter decide. The tick charges no simulated
// cost: arbitration is machine-level bookkeeping, not program work, so an
// equal-weights arbiter run stays bit-identical to a static one.
func (m *Machine) arbiterTick() {
	if m.stopped {
		return
	}
	m.scheduleArbiter()
	inputs := make([]arbiter.Input, 0, len(m.progs))
	for _, p := range m.progs {
		inputs = append(inputs, arbiter.Input{
			PID:    p.id,
			Weight: m.weightOf(p),
			NB:     p.queuedTasks(),
			NA:     p.active,
		})
	}
	arbiter.Report(m.arb.Tick(inputs), m.emit)
}

// Entitlements returns the core table's current entitlement vector (one
// entry per program slot), or nil for machines without a table.
func (m *Machine) Entitlements() []int32 {
	if m.table == nil {
		return nil
	}
	return m.table.Entitlements()
}
