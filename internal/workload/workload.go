// Package workload generates the task graphs of the paper's eight
// benchmarks (Table 2) for the simulator.
//
// The simulator observes a benchmark only through its task-DAG shape, task
// granularity and memory intensity, so each generator reproduces those
// three properties of its real counterpart (implemented for real in
// internal/kernels):
//
//	ID   Name       Shape                                  Parallelism
//	p-1  FFT        log n butterfly stages, wide barriers  high (≈64)
//	p-2  PNN        layered, alternating wide/narrow       varies (4–48)
//	p-3  Cholesky   right-looking, shrinking panel count   high → low
//	p-4  LU         right-looking, shrinking panel count   high → low
//	p-5  GE         elimination steps, shrinking row work  constant width
//	p-6  Heat       Jacobi sweeps, wide barriers           high
//	p-7  SOR        red-black half-sweeps, wide barriers   high
//	p-8  Mergesort  sort leaves + serialising merge tree   low (≈10)
//
// MemIntensity calibrates the simulator's cache model: stencils (Heat,
// SOR) are memory-bound, factorisations are in between, PNN is mostly
// compute.
//
// Every generator takes a scale factor: 1.0 yields a solo run of roughly
// 200–500 simulated ms on the default 16-core machine (seconds-scale like
// the paper's inputs, shrunk to keep event counts manageable); tests use
// smaller scales.
package workload

import (
	"fmt"
	"sort"

	"dws/internal/task"
)

// Benchmark is one entry of the paper's Table 2.
type Benchmark struct {
	// ID is the paper's identifier, e.g. "p-1".
	ID string
	// Name is the benchmark name, e.g. "FFT".
	Name string
	// Desc is the paper's one-line description.
	Desc string
	// Make builds the task graph at the given scale (1.0 = full size).
	Make func(scale float64) *task.Graph
}

// scaled multiplies a base duration by the scale, clamping to ≥1µs.
func scaled(base int64, scale float64) int64 {
	w := int64(float64(base) * scale)
	if w < 1 {
		w = 1
	}
	return w
}

// leaves returns n distinct single-stage nodes of work microseconds each:
// the children of a task.ParallelFor, which lays them out in one slab
// rather than two allocations a leaf. Callers that split the result
// between stages cap each piece at its own length, so an append to one
// stage's children copies instead of writing into the next stage's.
func leaves(n int, work int64) []*task.Node {
	return task.ParallelFor(n, work).Stages[0].Children
}

// FFT is p-1: an iterative radix-2 FFT — log₂(n) butterfly stages, each a
// wide barriered parallel loop over chunk ranges.
func FFT(scale float64) *task.Graph {
	const stages, chunks = 20, 64
	return &task.Graph{
		Name:         "FFT",
		Root:         task.IterativeFor(stages, chunks, scaled(3200, scale), 10),
		MemIntensity: 0.5,
		FootprintMB:  16,
	}
}

// PNN is p-2: a polynomial neural network (GMDH-style) evaluated layer by
// layer over a training batch — each layer is a wide parallel loop over
// batch chunks with a barrier before the next layer.
func PNN(scale float64) *task.Graph {
	const layers, chunks = 32, 40
	return &task.Graph{
		Name:         "PNN",
		Root:         task.IterativeFor(layers, chunks, scaled(2400, scale), 20),
		MemIntensity: 0.3,
		FootprintMB:  8,
	}
}

// rightLooking is the shape Cholesky and LU share: step i does stepWork
// of serial factorisation, then updates the steps-i panels still to its
// right (never fewer than 2) at panelWork each.
func rightLooking(steps int, panelWork, stepWork int64) *task.Node {
	panels := func(i int) int { return max(steps-i, 2) }
	total := 0
	for i := 0; i < steps; i++ {
		total += panels(i)
	}
	rest := leaves(total, panelWork)
	stages := make([]task.Stage, steps)
	for i := range stages {
		n := panels(i)
		stages[i] = task.Stage{Work: stepWork, Children: rest[:n:n]}
		rest = rest[n:]
	}
	return task.Phases(stages...)
}

// Cholesky is p-3: a right-looking blocked factorisation — each step
// factorises a diagonal block (serial) then updates the remaining panels,
// whose count shrinks as the factorisation proceeds.
func Cholesky(scale float64) *task.Graph {
	return &task.Graph{
		Name:         "Cholesky",
		Root:         rightLooking(32, scaled(3600, scale), scaled(300, scale)),
		MemIntensity: 0.6,
		FootprintMB:  32,
	}
}

// LU is p-4: LU decomposition without pivoting — same right-looking
// shrinking structure as Cholesky with more, smaller steps.
func LU(scale float64) *task.Graph {
	return &task.Graph{
		Name:         "LU",
		Root:         rightLooking(40, scaled(2800, scale), scaled(200, scale)),
		MemIntensity: 0.6,
		FootprintMB:  32,
	}
}

// GE is p-5: Gaussian elimination — one stage per pivot; the trailing
// update is a fixed-width parallel loop whose per-row work shrinks
// linearly as the triangle empties.
func GE(scale float64) *task.Graph {
	return &task.Graph{
		Name:         "GE",
		Root:         task.ShrinkingFor(48, 16, scaled(4800, scale), 10),
		MemIntensity: 0.55,
		FootprintMB:  32,
	}
}

// Heat is p-6: five-point heat distribution — Jacobi sweeps over row
// blocks with a barrier per iteration; strongly memory-bound.
func Heat(scale float64) *task.Graph {
	const iters, chunks = 100, 48
	return &task.Graph{
		Name:         "Heat",
		Root:         task.IterativeFor(iters, chunks, scaled(1600, scale), 5),
		MemIntensity: 0.8,
		FootprintMB:  64,
	}
}

// SOR is p-7: 2D red-black successive over-relaxation — two barriered
// half-sweeps per iteration; memory-bound like Heat.
func SOR(scale float64) *task.Graph {
	const halfSweeps, chunks = 240, 20
	return &task.Graph{
		Name:         "SOR",
		Root:         task.IterativeFor(halfSweeps, chunks, scaled(1800, scale), 5),
		MemIntensity: 0.75,
		FootprintMB:  48,
	}
}

// Mergesort is p-8: parallel merge sort of 4×10⁶ numbers — 256 sort
// leaves under a binary merge tree whose merges are serial and double in
// cost every level, capping parallelism around 10.
func Mergesort(scale float64) *task.Graph {
	const depth = 8
	root := task.DivideAndConquer(depth, 2, scaled(7200, scale), 10, 1)
	// DivideAndConquer prices every merge alike; here a node lvl levels
	// above the leaves merges 2^(lvl+1) leaves' worth of data.
	var price func(n *task.Node, lvl int)
	price = func(n *task.Node, lvl int) {
		if lvl < 0 {
			return
		}
		n.Stages[1].Work = scaled(1200<<lvl, scale)
		for _, c := range n.Stages[0].Children {
			price(c, lvl-1)
		}
	}
	price(root, depth-1)
	return &task.Graph{
		Name:         "Mergesort",
		Root:         root,
		MemIntensity: 0.4,
		FootprintMB:  32,
	}
}

// Registry lists the paper's benchmarks in Table 2 order.
var Registry = []Benchmark{
	{ID: "p-1", Name: "FFT", Desc: "Fast Fourier Transform", Make: FFT},
	{ID: "p-2", Name: "PNN", Desc: "Polynomial Neural Network", Make: PNN},
	{ID: "p-3", Name: "Cholesky", Desc: "Cholesky decomposition", Make: Cholesky},
	{ID: "p-4", Name: "LU", Desc: "LU decomposition", Make: LU},
	{ID: "p-5", Name: "GE", Desc: "Gaussian Elimination algorithm", Make: GE},
	{ID: "p-6", Name: "Heat", Desc: "Five-point heat distribution", Make: Heat},
	{ID: "p-7", Name: "SOR", Desc: "2D Successive Over-Relaxation", Make: SOR},
	{ID: "p-8", Name: "Mergesort", Desc: "Merge sort on 4E6 numbers", Make: Mergesort},
}

// all returns the paper registry followed by the synthetic shapes — the
// full lookup space of ByID/ByName/IDs. Registry itself stays paper-only
// so Table 2 experiments iterate exactly the paper's eight benchmarks.
func all() []Benchmark {
	return append(append([]Benchmark(nil), Registry...), Synthetics...)
}

// ByID returns the benchmark with the given ID ("p-1"…"p-8", "s-1"…"s-3")
// or an error.
func ByID(id string) (Benchmark, error) {
	for _, b := range all() {
		if b.ID == id {
			return b, nil
		}
	}
	return Benchmark{}, fmt.Errorf("workload: unknown benchmark %q", id)
}

// ByName returns the benchmark with the given name (case-sensitive),
// searching the paper registry and the synthetics.
func ByName(name string) (Benchmark, error) {
	for _, b := range all() {
		if b.Name == name {
			return b, nil
		}
	}
	return Benchmark{}, fmt.Errorf("workload: unknown benchmark %q", name)
}

// IDs returns all benchmark IDs (paper + synthetic), sorted.
func IDs() []string {
	bs := all()
	ids := make([]string, len(bs))
	for i, b := range bs {
		ids[i] = b.ID
	}
	sort.Strings(ids)
	return ids
}
