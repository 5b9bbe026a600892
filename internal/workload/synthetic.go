package workload

import "dws/internal/task"

// Synthetic workloads used by tests, the ablation experiments, and the
// scenario catalog. They are not part of the paper's Table 2 but isolate
// individual scheduler behaviours; Synthetics below registers them with
// "s-" IDs so scenario traces can name them like any benchmark.

// Wide returns a massively parallel divide-and-conquer graph whose demand
// always exceeds the machine: the "wants every core" extreme.
func Wide(scale float64) *task.Graph {
	return &task.Graph{
		Name:         "Wide",
		Root:         task.DivideAndConquer(9, 2, scaled(4000, scale), 20, 40),
		MemIntensity: 0.3,
		FootprintMB:  8,
	}
}

// Serialish returns a graph dominated by one long serial section with a
// small parallel prologue: the "wants one core" extreme.
func Serialish(scale float64) *task.Graph {
	return &task.Graph{
		Name:         "Serialish",
		Root:         task.Imbalanced(scaled(400_000, scale), 0.7, 32),
		MemIntensity: 0.2,
		FootprintMB:  4,
	}
}

// Bursty alternates wide barriered phases with near-serial phases, so its
// core demand oscillates on a coarse time scale — the workload DWS's
// coordinator is designed to track.
func Bursty(scale float64) *task.Graph {
	const cycles, wide, narrow = 12, 48, 2
	rest := leaves(cycles*(wide+narrow), scaled(1500, scale))
	stages := make([]task.Stage, 0, 2*cycles)
	for i := 0; i < cycles; i++ {
		stages = append(stages,
			task.Stage{Work: 10, Children: rest[:wide:wide]},
			task.Stage{Work: scaled(12_000, scale), Children: rest[wide : wide+narrow : wide+narrow]})
		rest = rest[wide+narrow:]
	}
	return &task.Graph{
		Name:         "Bursty",
		Root:         task.Phases(stages...),
		MemIntensity: 0.4,
		FootprintMB:  16,
	}
}

// Synthetics registers the synthetic shapes with "s-" IDs, alongside the
// paper's "p-" Registry. They resolve through ByID/ByName/IDs but are not
// part of Registry, so paper-reproduction experiments that iterate the
// registry stay paper-only.
var Synthetics = []Benchmark{
	{ID: "s-1", Name: "Wide", Desc: "Massively parallel divide-and-conquer", Make: Wide},
	{ID: "s-2", Name: "Serialish", Desc: "Serial-dominated with parallel prologue", Make: Serialish},
	{ID: "s-3", Name: "Bursty", Desc: "Oscillating wide/narrow phases", Make: Bursty},
}
