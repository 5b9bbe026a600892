// Package sim is a deterministic discrete-event simulator of a
// multi-programmed multi-core machine executing work-stealing programs.
//
// It is the substrate substituting for the paper's 16-core Xeon testbed
// (see DESIGN.md §2): simulated cores run per-core round-robin queues of
// worker threads with a scheduling quantum and context-switch cost, a
// per-core cache-warmth model plus a per-socket LLC-sharing model, and the
// four scheduling policies the paper evaluates — ABP (time-sharing with
// yielding thieves), EP (static space-sharing equipartition), DWS and
// DWS-NC.
//
// Time is measured in microseconds of simulated wall clock; task work is
// expressed in microseconds of ideal (warm-cache, uncontended) execution.
// Given identical configuration and seed, a simulation is bit-for-bit
// reproducible.
package sim

import (
	"errors"
	"fmt"
	"strings"
)

// Policy selects the scheduling strategy for every program in a machine.
type Policy int

const (
	// ABP is the paper's baseline: every program keeps one worker per core
	// (time-sharing), and a worker that fails to steal yields. See
	// Config.StrongYield for the two yield interpretations.
	ABP Policy = iota
	// EP is static space-sharing: each program runs one worker on each of
	// its k/m home cores and never leaves them.
	EP
	// DWS is the paper's contribution: space-sharing plus demand-driven
	// core exchange through the core allocation table, with sleeping
	// thieves and a per-program coordinator.
	DWS
	// DWSNC is the DWS-NC ablation (§4.2): workers sleep and wake on
	// demand exactly as in DWS, but there is no core allocation table, so
	// nothing guarantees a core hosts a single active worker.
	DWSNC
	// GO models the plain Go-scheduler baseline of the scenario suite:
	// goroutine-per-task on a shared runtime. Every program time-shares
	// every core like ABP, but a thief that runs dry parks (idle Ps park
	// instead of burning quanta in failed steals), and a task push wakes a
	// parked worker immediately (the runtime's wakep), with no coordinator
	// period and no core allocation table.
	GO
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
	case GO:
		return "GO"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// ParsePolicy parses a policy name as printed by Policy.String,
// case-insensitively ("DWS-NC" and "DWSNC" both work).
func ParsePolicy(s string) (Policy, error) {
	var names []string
	for p := ABP; p <= GO; p++ {
		if strings.EqualFold(s, p.String()) {
			return p, nil
		}
		names = append(names, p.String())
	}
	if strings.EqualFold(s, "DWSNC") {
		return DWSNC, nil
	}
	return 0, fmt.Errorf("sim: unknown policy %q (have %s)", s, strings.Join(names, ", "))
}

// Config describes the simulated machine and scheduler constants.
type Config struct {
	// Cores is k, the number of hardware cores.
	Cores int
	// SocketSize is the number of cores sharing a last-level cache. Cores
	// [0,SocketSize) form socket 0, and so on. 0 means all cores share one
	// socket.
	SocketSize int
	// Policy is the scheduling policy for all programs.
	Policy Policy

	// QuantumUS is the OS time-slice on a core shared by several runnable
	// workers, in µs.
	QuantumUS int64
	// CtxSwitchUS is charged each time a core switches between different
	// workers.
	CtxSwitchUS int64
	// StealCostUS is the cost of one steal attempt (successful or not).
	StealCostUS int64
	// RemoteStealPenaltyUS is the extra latency of a successful steal that
	// crosses a socket boundary (the stolen task's cache lines migrate
	// across the interconnect). Charged on top of the per-attempt
	// StealCostUS; 0 on a single-socket machine by construction.
	RemoteStealPenaltyUS int64
	// StealYieldUS is the pause a thief inserts between failed steal
	// attempts once it has scanned every victim without success (MIT Cilk
	// thieves yield in their steal loop). Together with TSleep it sets the
	// drought a DWS worker tolerates before sleeping:
	// ≈ TSleep × (StealCostUS + StealYieldUS).
	StealYieldUS int64
	// WakeLatencyUS is the delay between a coordinator waking a sleeping
	// worker and the worker becoming runnable.
	WakeLatencyUS int64

	// TSleep is the paper's T_SLEEP: a DWS/DWS-NC worker sleeps after more
	// than TSleep consecutive failed steals. 0 defaults to Cores.
	TSleep int
	// CoordPeriodUS is the paper's T: the coordinator wakes every
	// CoordPeriodUS µs. The paper suggests 10ms.
	CoordPeriodUS int64
	// CoordCostUS models the coordinator's own overhead: each tick charges
	// this much work to one of the program's active workers. Exposes the
	// "T too small" effect of §3.4.
	CoordCostUS int64

	// StrongYield selects the interpretation of the ABP yield. False (the
	// default) models Linux CFS reality — sched_yield barely demotes the
	// caller, so a workless thief keeps burning its fair share of the core
	// in failed steals (the resource waste §1 describes, and what the
	// paper measures). True models an idealised yield that immediately
	// passes the rest of the quantum to the next runnable worker.
	StrongYield bool

	// CachePenalty is the slowdown factor (≥1) a fully memory-bound
	// program suffers while refilling a cold per-core cache; scaled by the
	// workload's MemIntensity.
	CachePenalty float64
	// CacheWarmUS is how long a fully memory-bound program takes to
	// re-warm a core's cache after the core ran a different program.
	CacheWarmUS int64
	// LLCPenalty inflates execution time by LLCPenalty × MemIntensity per
	// additional distinct program concurrently executing on the same
	// socket (shared last-level cache and memory-bandwidth contention).
	LLCPenalty float64
	// SpinContention inflates execution time per spinning thief on the
	// same socket: failed steal attempts hammer the victims' deque cache
	// lines, so hoarded cores (large T_SLEEP) tax their neighbours — the
	// "resources wasted on useless steals" of §1.
	SpinContention float64

	// ArbiterPeriodUS, when positive, enables the QoS entitlement arbiter
	// under DWS: every ArbiterPeriodUS µs the machine folds each program's
	// demand (queued tasks, active workers) and declared weight into an
	// entitlement vector in the core allocation table, and coordinators
	// reclaim against their entitled home block instead of the static k/m
	// split. With equal weights and every program active the entitlements
	// equal the HomeCores split, so a run is bit-identical to an
	// arbiter-disabled one. 0 disables.
	ArbiterPeriodUS int64
	// Weights assigns each program its arbitration and admission weight;
	// the live server applies one declared weight to both (nil = all 1).
	// The arbiter reads it only with ArbiterPeriodUS > 0; the front door of
	// an open-loop replay always does. When set, its length must equal the
	// number of programs.
	Weights []float64

	// NoLocality disables the topology awareness a multi-socket SocketSize
	// otherwise grants: entitled home blocks fall back to the flat
	// prefix-sum split and victim scans ignore socket boundaries — the
	// pre-locality baseline for A/B studies. The locality steal counters
	// and the remote-steal penalty still apply (they measure and price the
	// machine, not the policy).
	NoLocality bool

	// Seed makes runs reproducible. Victim selection and free-core choice
	// derive from it.
	Seed int64
	// Debug enables machine-wide invariant verification after every
	// event (worker-state accounting, run-queue consistency, DWS core
	// exclusivity). Slow; intended for tests.
	Debug bool
	// MaxEvents aborts a simulation that exceeds this many events (a
	// safety valve against configuration bugs). 0 defaults to 200M.
	MaxEvents int64
}

// DefaultConfig returns the configuration used throughout the paper's
// reproduction: a 16-core machine of two 8-core sockets and the paper's
// suggested constants (T_SLEEP = k, T = 10 ms).
func DefaultConfig() Config {
	return Config{
		Cores:                16,
		SocketSize:           8,
		Policy:               DWS,
		QuantumUS:            6000,
		CtxSwitchUS:          10,
		StealCostUS:          5,
		RemoteStealPenaltyUS: 2,
		StealYieldUS:         400,
		WakeLatencyUS:        60,
		TSleep:               0, // defaults to Cores
		CoordPeriodUS:        10000,
		CoordCostUS:          5,
		CachePenalty:         2.0,
		CacheWarmUS:          2000,
		LLCPenalty:           0.25,
		SpinContention:       0.012,
		Seed:                 1,
	}
}

// Validation errors returned by Config.Validate and NewMachine.
var (
	ErrNoCores     = errors.New("sim: Cores must be positive")
	ErrNoPrograms  = errors.New("sim: at least one program is required")
	ErrTooManyProg = errors.New("sim: more programs than cores")
	ErrBadConfig   = errors.New("sim: invalid configuration")
)

// Validate checks the configuration and fills defaults in place.
func (c *Config) Validate() error {
	if c.Cores <= 0 {
		return ErrNoCores
	}
	if c.SocketSize <= 0 {
		c.SocketSize = c.Cores
	}
	if c.TSleep <= 0 {
		c.TSleep = c.Cores
	}
	if c.QuantumUS <= 0 || c.StealCostUS <= 0 {
		return fmt.Errorf("%w: QuantumUS and StealCostUS must be positive", ErrBadConfig)
	}
	if c.CtxSwitchUS < 0 || c.WakeLatencyUS < 0 || c.CoordCostUS < 0 ||
		c.StealYieldUS < 0 || c.RemoteStealPenaltyUS < 0 {
		return fmt.Errorf("%w: negative cost", ErrBadConfig)
	}
	if c.CoordPeriodUS <= 0 {
		c.CoordPeriodUS = 10000
	}
	if c.CachePenalty < 1 {
		return fmt.Errorf("%w: CachePenalty must be >= 1", ErrBadConfig)
	}
	if c.CacheWarmUS < 0 || c.LLCPenalty < 0 || c.SpinContention < 0 {
		return fmt.Errorf("%w: negative cache parameter", ErrBadConfig)
	}
	if c.ArbiterPeriodUS < 0 {
		c.ArbiterPeriodUS = 0
	}
	if c.ArbiterPeriodUS > 0 && c.Policy != DWS {
		return fmt.Errorf("%w: ArbiterPeriodUS requires the DWS policy (entitlements live in the core table)", ErrBadConfig)
	}
	for _, w := range c.Weights {
		if w <= 0 {
			return fmt.Errorf("%w: non-positive program weight %v", ErrBadConfig, w)
		}
	}
	if c.MaxEvents <= 0 {
		c.MaxEvents = 200_000_000
	}
	return nil
}
