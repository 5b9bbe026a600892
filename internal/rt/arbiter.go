package rt

import (
	"math"
	"sort"
	"sync/atomic"
	"time"

	"dws/internal/arbiter"
)

// QoS plumbing and the system arbitration loop: with Config.ArbiterPeriod
// set (DWS only), the System runs an internal/arbiter.Arbiter that
// periodically folds every live program's declared weight/SLO and
// measured demand into the core table's entitlement area. Coordinators
// then derive their elastic home block from the table (Program.homeCores)
// instead of the static HomeCores split.

// SetQoS declares the program's arbitration weight (≤ 0 means 1) and
// optional latency SLO (0 = none). Safe to call at any time; the arbiter
// picks the new values up on its next tick.
func (p *Program) SetQoS(weight float64, slo time.Duration) {
	if weight <= 0 {
		weight = 1
	}
	p.weightBits.Store(math.Float64bits(weight))
	p.sloNanos.Store(int64(slo))
}

// QoS returns the program's declared weight and SLO (1, 0 if never set).
func (p *Program) QoS() (weight float64, slo time.Duration) {
	weight = 1
	if bits := p.weightBits.Load(); bits != 0 {
		weight = math.Float64frombits(bits)
	}
	return weight, time.Duration(p.sloNanos.Load())
}

// ReportQueueWait feeds one observed job queue wait into the program's
// demand signal (dwsd calls this as it dequeues jobs). The arbiter drains
// the worst wait since its last tick.
func (p *Program) ReportQueueWait(d time.Duration) {
	if d <= 0 {
		return
	}
	for {
		cur := p.qwaitNanos.Load()
		if int64(d) <= cur || p.qwaitNanos.CompareAndSwap(cur, int64(d)) {
			return
		}
	}
}

// takeQueueWait drains the worst queue wait reported since the last call.
func (p *Program) takeQueueWait() time.Duration {
	return time.Duration(p.qwaitNanos.Swap(0))
}

// demand reads the coordinator's demand signals: N_b (queued tasks across
// the inject queue and every worker deque, a racy snapshot) and N_a
// (active workers).
func (p *Program) demand() (nb, na int) {
	nb = p.inject.Len()
	for _, w := range p.workers {
		nb += w.deque.Len()
	}
	return nb, int(p.active.Load())
}

// homeCores returns the program's current home block: the entitled block
// the arbiter published when one exists, the paper's static HomeCores
// split otherwise. Reclaim (§3.3 cases 2–3) stays home-only either way —
// only the home itself is elastic.
//
// Under a non-flat topology the entitled block is not the flat
// prefix-sum slice but the placed one — arbiter.Place recomputed from
// the published size vector, so every reader (this runtime, the sim,
// schedcheck) derives bit-identical blocks without any coretable wire
// change. Static homes (no entitlement epoch yet) stay the flat even
// split. FaultFlatPlacement plants the "ignore topology" bug the
// schedcheck placed-block invariants must catch.
func (p *Program) homeCores() []int {
	t := p.sys.table
	if t == nil {
		return p.home
	}
	if tp := p.sys.cfg.Topology; !tp.Flat() && !p.sys.cfg.FaultFlatPlacement {
		if t.EntitlementEpoch() > 0 {
			return arbiter.PlacedFor(tp, t.Entitlements(), p.idx)
		}
		return p.home
	}
	if ent := t.EntitledCores(p.idx); ent != nil {
		return ent
	}
	return p.home
}

// runHomeCores is homeCores for regrabHome, which runs once per job (DWS
// only, runMu held). A flat topology's entitled block is a contiguous
// range, so the slice built for it is kept in p.runHome and rebuilt only
// when the block moves; placed blocks are derived afresh.
func (p *Program) runHomeCores() []int {
	if tp := p.sys.cfg.Topology; !tp.Flat() && !p.sys.cfg.FaultFlatPlacement {
		return p.homeCores()
	}
	start, size, ok := p.sys.table.EntitledBlock(p.idx)
	if !ok {
		return p.home
	}
	if h := p.runHome; len(h) != size || (size > 0 && h[0] != start) {
		p.runHome = make([]int, size)
		for i := range p.runHome {
			p.runHome[i] = start + i
		}
	}
	return p.runHome
}

// Arbiter returns the system's arbiter, or nil when arbitration is
// disabled.
func (s *System) Arbiter() *arbiter.Arbiter { return s.arb }

// Entitlements returns the core table's current entitlement vector (one
// entry per program slot), or nil for policies without a table.
func (s *System) Entitlements() []int32 {
	if s.table == nil {
		return nil
	}
	return s.table.Entitlements()
}

// EntitlementEpoch returns the core table's entitlement generation — 0
// until the arbiter's first publish (and always 0 for policies without a
// table), then strictly increasing per published batch.
func (s *System) EntitlementEpoch() int64 {
	if s.table == nil {
		return 0
	}
	return s.table.EntitlementEpoch()
}

// arbiterLoop drives the arbiter off the system clock. It shares the
// sweeper's stop channel and waitgroup.
func (s *System) arbiterLoop() {
	defer s.sweepWG.Done()
	ticker := s.cfg.Clock.NewTicker(s.cfg.ArbiterPeriod)
	defer ticker.Stop()
	for {
		select {
		case <-s.sweepStop:
			return
		case <-ticker.C():
			s.arbTick()
		}
	}
}

// arbTick assembles one round of demand reports from the live programs
// (in slot order, for determinism), runs the arbiter, and emits one
// ObsEntitle row per program of any published batch — shrinks first, so
// an observer folding the rows one by one never sees the entitlement sum
// exceed k.
func (s *System) arbTick() {
	progs := s.Programs()
	sort.Slice(progs, func(i, j int) bool { return progs[i].id < progs[j].id })
	inputs := make([]arbiter.Input, 0, len(progs))
	for _, p := range progs {
		if p.shutdown.Load() {
			continue
		}
		w, slo := p.QoS()
		nb, na := p.demand()
		inputs = append(inputs, arbiter.Input{
			PID: p.id, Weight: w, SLO: slo,
			NB: nb, NA: na, QueueWait: p.takeQueueWait(),
		})
	}
	decisions := s.arb.Tick(inputs)
	for pass := 0; pass < 2; pass++ {
		for _, d := range decisions {
			if (d.New < d.Old) != (pass == 0) {
				continue
			}
			s.emit(ObsEvent{
				Kind: ObsEntitle, Prog: d.PID, Core: -1,
				EOld: int(d.Old), ENew: int(d.New), Floor: int(d.Floor),
				Weight: d.Weight, Score: d.Score,
				Demand: d.Demand, Activity: d.Activity, Active: d.Active,
				Trigger: d.Trigger, Epoch: d.Epoch, Batch: d.Batch,
			})
		}
	}
}

// qosState is embedded in Program: the declared QoS parameters and the
// queue-wait demand signal dwsd feeds in, all lock-free.
type qosState struct {
	weightBits atomic.Uint64 // math.Float64bits of the weight; 0 = unset
	sloNanos   atomic.Int64
	qwaitNanos atomic.Int64 // worst queue wait since the last arbiter tick
}
