package sim

import "dws/internal/arbiter"

// The simulator's model of QoS core arbitration (Config.ArbiterPeriodUS):
// the machine runs the very same internal/arbiter.Arbiter the live
// runtime uses, ticked as a machine-level event, feeding it each
// program's simulated demand (queued tasks, active workers) and declared
// weight. Published entitlements land in the in-memory core table, and
// regrabHome/coordWakeDWS derive the home block from there — so the sim
// and live substrates disagree only in their demand measurements, never
// in arbitration arithmetic.

// homeOf returns p's current home block: the entitled block from the core
// table once the arbiter has published (entitlement epoch > 0), the
// static even split otherwise. Mirrors rt.Program.homeCores so both
// substrates reclaim against the same elastic home.
//
// On a multi-socket machine the entitled block is the placed one —
// arbiter.Place recomputed from the published size vector, identical to
// what the live runtime and schedcheck derive — so entitled blocks pack
// within a socket whenever they fit. Static homes stay the flat split.
func (m *Machine) homeOf(p *Program) []int {
	if m.table == nil {
		return p.home
	}
	if !m.topo.Flat() && !m.cfg.NoLocality {
		if m.table.EntitlementEpoch() > 0 {
			return arbiter.PlacedFor(m.topo, m.table.Entitlements(), p.idx)
		}
		return p.home
	}
	if ent := m.table.EntitledCores(p.idx); ent != nil {
		return ent
	}
	return p.home
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
