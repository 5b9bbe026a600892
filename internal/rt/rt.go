// Package rt is a real, userland work-stealing runtime implementing the
// paper's scheduler on live goroutines — the second substrate of this
// reproduction (DESIGN.md §2).
//
// A System models one multi-core machine inside a single process: k core
// slots and, under DWS, the shared core allocation table. Each Program is
// one "work-stealing program" with one worker goroutine per core slot and
// (under DWS/DWS-NC) a coordinator goroutine. The Go scheduler plays the
// role of the OS thread scheduler: with GOMAXPROCS = k, the m×k worker
// goroutines time-share k processors exactly like the paper's m×k worker
// threads time-share k cores.
//
// Policies:
//
//   - ABP: all k workers of every program stay runnable; a worker that
//     fails to steal yields (runtime.Gosched — the ABP yield).
//   - EP: each program only runs workers on its k/m home slots.
//   - DWS: workers sleep after T_SLEEP consecutive failed steals and
//     release their slot in the allocation table; the coordinator wakes
//     sleeping workers onto free or reclaimed slots (§3.3).
//   - DWSNC: sleep/wake as DWS but with no allocation table (the §4.2
//     ablation).
//
// Programs express work with the fork-join API: the root task receives a
// *Ctx; Ctx.Spawn pushes child tasks onto the worker's deque and Ctx.Sync
// joins them, helping to execute queued tasks while it waits.
package rt

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dws/internal/arbiter"
	"dws/internal/coretable"
	"dws/internal/topo"
	"dws/internal/trace"
	"dws/internal/vclock"
)

// Policy selects the scheduling strategy for all programs of a System.
type Policy int

// Policies mirror the simulator's (see package sim).
const (
	ABP Policy = iota
	EP
	DWS
	DWSNC
)

// String returns the policy name as used in the paper.
func (p Policy) String() string {
	switch p {
	case ABP:
		return "ABP"
	case EP:
		return "EP"
	case DWS:
		return "DWS"
	case DWSNC:
		return "DWS-NC"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// ParsePolicy parses a policy name as printed by Policy.String,
// case-insensitively ("DWS-NC" and "DWSNC" both work).
func ParsePolicy(s string) (Policy, error) {
	switch strings.ToUpper(s) {
	case "ABP":
		return ABP, nil
	case "EP":
		return EP, nil
	case "DWS":
		return DWS, nil
	case "DWS-NC", "DWSNC":
		return DWSNC, nil
	}
	return 0, fmt.Errorf("rt: unknown policy %q", s)
}

// Config describes a System.
type Config struct {
	// Cores is k, the number of core slots.
	Cores int
	// Programs is m, the number of co-running programs the system hosts;
	// it fixes the even initial (home) allocation.
	Programs int
	// Policy applies to every program.
	Policy Policy
	// TSleep is the paper's T_SLEEP (≤0 defaults to Cores).
	TSleep int
	// CoordPeriod is the paper's T (0 defaults to 10ms).
	CoordPeriod time.Duration
	// LeaseTTL is how stale a program's core-table heartbeat may grow
	// before survivors declare it dead and free its cores (DWS only; ≤0
	// defaults to 10×CoordPeriod, floored at 2s — on an oversubscribed
	// host a busy-but-alive program's coordinator can miss beats for
	// hundreds of milliseconds, and a spurious sweep evicts a live
	// program). Tests that wedge programs deliberately set it low.
	LeaseTTL time.Duration
	// Table optionally supplies an existing core allocation table —
	// typically a file-backed one shared with other OS processes
	// (coretable.OpenFile) — instead of a fresh in-memory table. DWS only;
	// its K() must equal Cores. The caller keeps ownership: System.Close
	// does not close an externally provided table.
	Table *coretable.Table
	// Clock is the runtime's time source: coordinator period, lease
	// heartbeats/TTL and Run's re-wake fallback all go through it. nil
	// defaults to the real clock; tests substitute a vclock.Fake to drive
	// scheduling deterministically. Tables the System
	// creates itself also stamp lease beats from this clock; an external
	// Table keeps its own time source (it is shared across processes).
	Clock vclock.Clock
	// Observer, when non-nil, receives a typed trace.Event for every
	// scheduling transition (sleeps, wakes, claims, reclaims, evictions,
	// releases, coordinator passes, lease joins/sweeps, run boundaries).
	// The invariant checker in internal/schedcheck plugs in here.
	Observer trace.Observer
	// Topology describes the socket layout of the core slots. It drives
	// the victim order (arbiter.Order: same-socket victims before remote
	// ones, with steal-back bias and a bounded remote backoff) and,
	// when an arbiter publishes entitlements, the placement of each
	// program's entitled block (arbiter.Place: within one socket when it
	// fits, torn along socket boundaries when it doesn't). nil means flat
	// — a single socket, the exact pre-topology behaviour. Live daemons
	// pass topo.Detect(cores) to pick up the host's sysfs socket map.
	Topology *topo.Topology
	// FaultSkipReclaim is a fault-injection hook for correctness tests:
	// when set, the coordinator skips the §3.3 reclaim cases (2 and 3)
	// entirely, i.e. it never takes borrowed home cores back. The
	// schedcheck invariant checker must catch the resulting under-waking;
	// see also Program.FailBeats.
	FaultSkipReclaim bool
	// FaultFlatPlacement is a fault-injection hook: the program derives
	// its entitled home block from the flat prefix-sum split even though a
	// topology is configured — i.e. the runtime "ignores topology" while
	// the checker recomputes the placed blocks. schedcheck must catch the
	// resulting out-of-block reclaims.
	FaultFlatPlacement bool
	// ArbiterPeriod, when positive, enables QoS-weighted elastic core
	// arbitration (DWS only): every period the system folds each live
	// program's declared weight/SLO (Program.SetQoS) and measured demand
	// into the core table's entitlement area, and coordinators derive
	// their home block from the published entitlements instead of the
	// static HomeCores split. 0 disables arbitration (the paper's fixed
	// shares).
	ArbiterPeriod time.Duration
	// Arbiter optionally tunes the arbitration policy (hysteresis, fault
	// injection). Cores is filled in from the system; nil uses the
	// documented defaults.
	Arbiter *arbiter.Config
}

func (c *Config) validate() error {
	if c.Cores <= 0 {
		return errors.New("rt: Cores must be positive")
	}
	if c.Programs <= 0 || c.Programs > c.Cores {
		return fmt.Errorf("rt: Programs must be in [1, %d]", c.Cores)
	}
	if c.TSleep <= 0 {
		c.TSleep = c.Cores
	}
	if c.CoordPeriod <= 0 {
		c.CoordPeriod = 10 * time.Millisecond
	}
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 10 * c.CoordPeriod
		if c.LeaseTTL < 2*time.Second {
			c.LeaseTTL = 2 * time.Second
		}
	}
	if c.Table != nil {
		if c.Policy != DWS {
			return errors.New("rt: an external Table requires the DWS policy")
		}
		if c.Table.K() != c.Cores {
			return fmt.Errorf("rt: external table covers %d cores, want %d",
				c.Table.K(), c.Cores)
		}
	}
	if c.Topology == nil {
		c.Topology = topo.Flat(c.Cores)
	} else if c.Topology.K() != c.Cores {
		return fmt.Errorf("rt: topology covers %d cores, want %d", c.Topology.K(), c.Cores)
	}
	if c.ArbiterPeriod < 0 {
		c.ArbiterPeriod = 0
	}
	if c.ArbiterPeriod > 0 && c.Policy != DWS {
		return errors.New("rt: ArbiterPeriod requires the DWS policy (entitlements live in the core table)")
	}
	if c.Clock == nil {
		c.Clock = vclock.Real{}
	}
	return nil
}

// System is one simulated machine: k core slots shared by up to m
// programs.
type System struct {
	cfg      Config
	table    *coretable.Table // non-nil only under DWS
	ownTable bool             // close the table on System.Close
	arb      *arbiter.Arbiter // non-nil when Config.ArbiterPeriod > 0

	mu    sync.Mutex
	slots []*Program // one entry per program slot; nil while free

	// Lease sweeping: the system runs its own sweeper goroutine (in
	// addition to every program coordinator sweeping) so dead leases are
	// collected even when no program is live, and aggregates recovery
	// counters across all in-process sweepers.
	sweepStop      chan struct{}
	sweepWG        sync.WaitGroup
	closeOnce      sync.Once
	deadSweeps     atomic.Int64
	coresRecovered atomic.Int64

	deadMu sync.Mutex
	onDead func(slot int, pid int32, coresFreed int)
}

// NewSystem creates a system for up to cfg.Programs co-running programs.
func NewSystem(cfg Config) (*System, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	s := &System{
		cfg:       cfg,
		slots:     make([]*Program, cfg.Programs),
		sweepStop: make(chan struct{}),
	}
	if cfg.Policy == DWS {
		if cfg.Table != nil {
			s.table = cfg.Table
		} else {
			s.table = coretable.NewMem(cfg.Cores)
			s.ownTable = true
			// Leases of a table we own are stamped from our clock, so a
			// fake clock controls lease expiry too.
			clk := cfg.Clock
			s.table.SetNowFunc(func() int64 { return clk.Now().UnixNano() })
		}
		s.sweepWG.Add(1)
		go s.sweeper()
		if cfg.ArbiterPeriod > 0 {
			var acfg arbiter.Config
			if cfg.Arbiter != nil {
				acfg = *cfg.Arbiter
			}
			acfg.Cores = cfg.Cores
			s.arb = arbiter.New(acfg, s.table)
			s.sweepWG.Add(1)
			go s.arbiterLoop()
		}
	}
	return s, nil
}

// emit reports a system-level event to the observer.
func (s *System) emit(ev trace.Event) {
	if s.cfg.Observer != nil {
		s.cfg.Observer(ev)
	}
}

// sweeper is the system-level dead-lease collector: every coordinator
// period it frees the cores of programs whose heartbeat expired. Program
// coordinators run the same sweep (that is what recovers cores when the
// dead program lived in another OS process and this process hosts a
// survivor); the CAS-claimed sweep in coretable guarantees each death is
// counted exactly once per table.
func (s *System) sweeper() {
	defer s.sweepWG.Done()
	ticker := s.cfg.Clock.NewTicker(s.cfg.CoordPeriod)
	defer ticker.Stop()
	for {
		select {
		case <-s.sweepStop:
			return
		case <-ticker.C():
			s.noteSwept(0, s.table.SweepExpired(0, s.cfg.LeaseTTL))
		}
	}
}

// noteSwept folds one sweep's findings into the system recovery counters
// and invokes the dead-program handler. Called by the system sweeper
// (sweeper = 0) and by every program coordinator (its table ID).
func (s *System) noteSwept(sweeper int32, dead []coretable.Expired) {
	if len(dead) == 0 {
		return
	}
	s.deadMu.Lock()
	h := s.onDead
	s.deadMu.Unlock()
	for _, e := range dead {
		s.deadSweeps.Add(1)
		s.coresRecovered.Add(int64(e.Cores))
		s.emit(trace.Event{Kind: trace.Sweep, Prog: sweeper, Core: -1,
			Victim: e.PID, Epoch: e.Epoch, Cores: e.Cores})
		if h != nil {
			h(int(e.PID)-1, e.PID, e.Cores)
		}
	}
}

// SetDeadProgramHandler registers f to be called whenever a sweep finds a
// program's lease expired (slot is the 0-based program slot, pid the
// 1-based table ID). f runs on a coordinator or sweeper goroutine and
// must not block; in particular it must not call Program.Close
// synchronously (Close waits for the very coordinator f may be running
// on). The job server uses this to evict wedged tenants.
func (s *System) SetDeadProgramHandler(f func(slot int, pid int32, coresFreed int)) {
	s.deadMu.Lock()
	s.onDead = f
	s.deadMu.Unlock()
}

// RecoveryStats returns the system-wide crash-recovery counters: how many
// dead program leases were swept and how many occupied cores those sweeps
// freed (both cumulative, aggregated over every in-process sweeper).
func (s *System) RecoveryStats() (deadSweeps, coresRecovered int64) {
	return s.deadSweeps.Load(), s.coresRecovered.Load()
}

// Cores returns k.
func (s *System) Cores() int { return s.cfg.Cores }

// Policy returns the system's scheduling policy.
func (s *System) Policy() Policy { return s.cfg.Policy }

// MaxPrograms returns m, the number of program slots.
func (s *System) MaxPrograms() int { return s.cfg.Programs }

// FreeSlots returns how many program slots are currently unoccupied.
func (s *System) FreeSlots() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, p := range s.slots {
		if p == nil {
			n++
		}
	}
	return n
}

// Programs returns a snapshot of the currently hosted programs.
func (s *System) Programs() []*Program {
	s.mu.Lock()
	defer s.mu.Unlock()
	var ps []*Program
	for _, p := range s.slots {
		if p != nil {
			ps = append(ps, p)
		}
	}
	return ps
}

// Occupants returns the core allocation table's occupancy snapshot, one
// 1-based program ID (or 0 = free) per core slot. It returns nil for
// policies without a table.
func (s *System) Occupants() []int32 {
	if s.table == nil {
		return nil
	}
	return s.table.Snapshot()
}

// NewProgram registers a program in the lowest free slot (at most
// cfg.Programs co-run at once; a slot freed by Program.Close is reusable)
// and starts its workers and coordinator. Callers must Close it.
func (s *System) NewProgram(name string) (*Program, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	idx := -1
	for i, p := range s.slots {
		if p == nil {
			idx = i
			break
		}
	}
	if idx < 0 {
		return nil, fmt.Errorf("rt: system already hosts %d programs", s.cfg.Programs)
	}
	p := newProgram(s, name, idx)
	s.slots[idx] = p
	p.start()
	return p, nil
}

// NewProgramAt registers a program in a specific slot (0-based). It is
// how an independently launched OS process joins a shared file-backed
// table as program idx of m: the slot fixes both the table ID (idx+1) and
// the home core block, which must agree across every process.
func (s *System) NewProgramAt(name string, idx int) (*Program, error) {
	if idx < 0 || idx >= s.cfg.Programs {
		return nil, fmt.Errorf("rt: slot %d out of range [0,%d)", idx, s.cfg.Programs)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.slots[idx] != nil {
		return nil, fmt.Errorf("rt: slot %d already hosts program %q", idx, s.slots[idx].name)
	}
	p := newProgram(s, name, idx)
	s.slots[idx] = p
	p.start()
	return p, nil
}

// detach frees p's slot once it has fully shut down.
func (s *System) detach(p *Program) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.slots[p.idx] == p {
		s.slots[p.idx] = nil
	}
}

// Close shuts down every program of the system and stops the lease
// sweeper. An externally provided table (Config.Table) is left open — its
// owner closes it.
func (s *System) Close() {
	s.closeOnce.Do(func() { close(s.sweepStop) })
	s.sweepWG.Wait()
	for _, p := range s.Programs() {
		p.Close()
	}
	if s.table != nil && s.ownTable {
		_ = s.table.Close()
	}
}

// Stats is a snapshot of a program's scheduler counters.
type Stats struct {
	Steals       int64 `json:"steals"`
	FailedSteals int64 `json:"failed_steals"`
	// LocalSteals and RemoteSteals split deque steals by whether the
	// victim shared the thief's socket (Config.Topology). Injection-queue
	// steals count toward Steals but neither locality bucket; under a
	// flat topology every deque steal is local.
	LocalSteals  int64 `json:"local_steals,omitempty"`
	RemoteSteals int64 `json:"remote_steals,omitempty"`
	Sleeps       int64 `json:"sleeps"`
	Wakes        int64 `json:"wakes"`
	Evictions    int64 `json:"evictions"`
	Claims       int64 `json:"claims"`
	Reclaims     int64 `json:"reclaims"`
	Runs         int64 `json:"runs"`
	// DeadSweeps counts dead co-runner leases this program's coordinator
	// swept; CoresRecovered the cores those sweeps freed (DWS only).
	DeadSweeps     int64 `json:"dead_sweeps,omitempty"`
	CoresRecovered int64 `json:"cores_recovered,omitempty"`
	// Spawns counts tasks queued (Ctx.Spawn plus one root injection per
	// run); Execs counts tasks executed. They are equal at every run
	// boundary unless a task was lost — the conservation invariant the
	// schedcheck checker asserts. Neither goes on the wire.
	Spawns int64 `json:"-"`
	Execs  int64 `json:"-"`
}

// Sub returns s - o counter-wise: one run's deltas from two readings of a
// program's cumulative counters.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		Steals:         s.Steals - o.Steals,
		FailedSteals:   s.FailedSteals - o.FailedSteals,
		LocalSteals:    s.LocalSteals - o.LocalSteals,
		RemoteSteals:   s.RemoteSteals - o.RemoteSteals,
		Sleeps:         s.Sleeps - o.Sleeps,
		Wakes:          s.Wakes - o.Wakes,
		Evictions:      s.Evictions - o.Evictions,
		Claims:         s.Claims - o.Claims,
		Reclaims:       s.Reclaims - o.Reclaims,
		Runs:           s.Runs - o.Runs,
		DeadSweeps:     s.DeadSweeps - o.DeadSweeps,
		CoresRecovered: s.CoresRecovered - o.CoresRecovered,
		Spawns:         s.Spawns - o.Spawns,
		Execs:          s.Execs - o.Execs,
	}
}

// workerStats is one worker's shard of the program counters. Every
// counter a worker bumps on its task/steal path lives in its own shard so
// concurrent workers never write the same cache line; the shards are
// padded to the 128-byte destructive-interference span (two lines — the
// x86 adjacent-line prefetcher pairs them) because they sit adjacent in
// one slice. The fields stay atomic for Stats() readers — an uncontended
// atomic add on an exclusively held line costs single-digit nanoseconds;
// it is the cross-core line bouncing the sharding removes.
type workerStats struct {
	spawns, execs             atomic.Int64
	steals, failedSteals      atomic.Int64
	localSteals, remoteSteals atomic.Int64
	sleeps, evictions         atomic.Int64
	_                         [128 - 8*8]byte
}

// progStats holds the live counters behind Stats: one padded shard per
// worker for worker-path counters, plus a program-level block for
// counters only the coordinator, Run, or sweep paths touch.
type progStats struct {
	w []workerStats

	rootSpawns                 atomic.Int64 // Run's root injections
	wakes                      atomic.Int64
	claims, reclaims           atomic.Int64
	runs                       atomic.Int64
	deadSweeps, coresRecovered atomic.Int64
}

func (ps *progStats) init(cores int) { ps.w = make([]workerStats, cores) }

// spawns/execs total the per-worker shards. At a run boundary (trace.RunDone)
// the sums are exact, not racy: every shard increment happens-before the
// root frame's done close through the frame pending chain.
func (ps *progStats) spawns() int64 {
	n := ps.rootSpawns.Load()
	for i := range ps.w {
		n += ps.w[i].spawns.Load()
	}
	return n
}

func (ps *progStats) execs() int64 {
	var n int64
	for i := range ps.w {
		n += ps.w[i].execs.Load()
	}
	return n
}

func (ps *progStats) localSteals() int64 {
	var n int64
	for i := range ps.w {
		n += ps.w[i].localSteals.Load()
	}
	return n
}

func (ps *progStats) remoteSteals() int64 {
	var n int64
	for i := range ps.w {
		n += ps.w[i].remoteSteals.Load()
	}
	return n
}

func (ps *progStats) snapshot() Stats {
	s := Stats{
		Wakes:          ps.wakes.Load(),
		Claims:         ps.claims.Load(),
		Reclaims:       ps.reclaims.Load(),
		Runs:           ps.runs.Load(),
		DeadSweeps:     ps.deadSweeps.Load(),
		CoresRecovered: ps.coresRecovered.Load(),
		Spawns:         ps.rootSpawns.Load(),
	}
	for i := range ps.w {
		ws := &ps.w[i]
		s.Steals += ws.steals.Load()
		s.FailedSteals += ws.failedSteals.Load()
		s.LocalSteals += ws.localSteals.Load()
		s.RemoteSteals += ws.remoteSteals.Load()
		s.Sleeps += ws.sleeps.Load()
		s.Evictions += ws.evictions.Load()
		s.Spawns += ws.spawns.Load()
		s.Execs += ws.execs.Load()
	}
	return s
}
