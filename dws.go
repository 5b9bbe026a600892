// Package dws reproduces "DWS: Demand-aware Work-Stealing in
// Multi-programmed Multi-core Architectures" (Chen, Zheng, Guo — PMAM /
// PPoPP 2014) as a Go library.
//
// DWS is a work-stealing task scheduler for machines running several
// parallel programs at once. Instead of every program greedily running a
// worker on every core (and thrashing each other via the OS time-sharer),
// DWS programs space-share: cores start evenly partitioned, a worker that
// cannot find work goes to sleep and releases its core into a shared
// core allocation table, and a per-program coordinator wakes workers onto
// free (or reclaimed home) cores when the program's task queues grow.
//
// The package exposes the reproduction's two substrates:
//
//   - the deterministic machine simulator (NewSimMachine), on which every
//     figure and table of the paper's evaluation is regenerated — see
//     internal/bench and `dwssim -exp`;
//   - the live runtime (NewSystem), a real goroutine-based work-stealing
//     scheduler with the same policies, used by the example applications
//     and the real-kernel benchmarks.
//
// Quick start (live runtime):
//
//	sys, _ := dws.NewSystem(dws.RuntimeConfig{Cores: 8, Programs: 1, Policy: dws.PolicyDWS})
//	defer sys.Close()
//	prog, _ := sys.NewProgram("mine")
//	prog.Run(func(c *dws.Ctx) {
//	    c.Spawn(func(*dws.Ctx) { /* left half */ })
//	    c.Spawn(func(*dws.Ctx) { /* right half */ })
//	    c.Sync()
//	})
//
// Quick start (simulator):
//
//	cfg := dws.DefaultSimConfig()
//	cfg.Policy = dws.SimDWS
//	m, _ := dws.NewSimMachine(cfg, []*dws.Graph{dws.Workloads()[0].Make(1.0)})
//	res, _ := m.Run(dws.SimRunOpts{TargetRuns: 4})
//	fmt.Println(res)
package dws

import (
	"dws/internal/rt"
	"dws/internal/sim"
	"dws/internal/task"
	"dws/internal/workload"
)

// Simulator API -------------------------------------------------------

// SimConfig configures the deterministic machine simulator.
type SimConfig = sim.Config

// SimPolicy selects a simulated scheduling policy.
type SimPolicy = sim.Policy

// Simulated policies.
const (
	SimABP   = sim.ABP
	SimEP    = sim.EP
	SimDWS   = sim.DWS
	SimDWSNC = sim.DWSNC
)

// SimMachine is a deterministic multi-programmed machine simulation.
type SimMachine = sim.Machine

// SimRunOpts controls a simulation run.
type SimRunOpts = sim.RunOpts

// SimResults is a simulation outcome.
type SimResults = sim.Results

// DefaultSimConfig returns the 16-core configuration used for the paper's
// reproduction.
func DefaultSimConfig() SimConfig { return sim.DefaultConfig() }

// NewSimMachine builds a simulated machine co-running one work-stealing
// program per graph.
func NewSimMachine(cfg SimConfig, graphs []*Graph) (*SimMachine, error) {
	return sim.NewMachine(cfg, graphs)
}

// Task-graph API ------------------------------------------------------

// Graph is a fork-join task graph (a workload description for the
// simulator).
type Graph = task.Graph

// Node is one task of a Graph.
type Node = task.Node

// Benchmark is a generator for one of the paper's Table 2 workloads.
type Benchmark = workload.Benchmark

// Workloads returns the paper's eight benchmarks in Table 2 order.
func Workloads() []Benchmark { return workload.Registry }

// WorkloadByID returns a Table 2 benchmark by its paper ID ("p-1".."p-8").
func WorkloadByID(id string) (Benchmark, error) { return workload.ByID(id) }

// Live-runtime API ----------------------------------------------------

// RuntimeConfig configures the live goroutine-based runtime.
type RuntimeConfig = rt.Config

// Policy selects a live-runtime scheduling policy.
type Policy = rt.Policy

// Live-runtime policies.
const (
	PolicyABP   = rt.ABP
	PolicyEP    = rt.EP
	PolicyDWS   = rt.DWS
	PolicyDWSNC = rt.DWSNC
)

// System is a live in-process machine: core slots shared by programs.
type System = rt.System

// Program is one live work-stealing program.
type Program = rt.Program

// Ctx is the fork-join context passed to live tasks.
type Ctx = rt.Ctx

// Task is one unit of live fork-join work.
type Task = rt.Task

// Runner is anything with a task body; Ctx.SpawnRunner queues one, so a
// spawn tree can be a slab of nodes instead of a closure per node.
type Runner = rt.Runner

// Stats is a snapshot of a live program's scheduler counters.
type Stats = rt.Stats

// NewSystem creates a live system hosting cfg.Programs co-running
// programs on cfg.Cores core slots.
func NewSystem(cfg RuntimeConfig) (*System, error) { return rt.NewSystem(cfg) }

// ParallelFor executes fn over disjoint chunks of [0, n) in parallel and
// joins them — the cilk_for idiom on the live runtime. grain ≤ 0 picks a
// chunk size automatically.
func ParallelFor(c *Ctx, n, grain int, fn func(lo, hi int)) {
	rt.ParallelFor(c, n, grain, fn)
}

// ParallelReduce computes fn over disjoint chunks of [0, n) in parallel
// and folds the partial results with merge (which must be associative).
func ParallelReduce[T any](c *Ctx, n, grain int, fn func(lo, hi int) T, merge func(a, b T) T) T {
	return rt.ParallelReduce(c, n, grain, fn, merge)
}

// RecordGraph executes root sequentially while recording its fork-join
// structure and serial-section durations, producing a Graph the simulator
// can run — the bridge from real code to simulated workloads.
func RecordGraph(name string, memIntensity float64, root Task) *Graph {
	return rt.RecordGraph(name, memIntensity, root)
}
