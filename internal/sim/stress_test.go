package sim

import (
	"math/rand"
	"testing"

	"dws/internal/task"
)

// randomGraph builds a random valid fork-join graph whose total work is
// bounded, covering deep recursion, wide phases and serial lumps.
func randomGraph(rng *rand.Rand, name string) *task.Graph {
	var build func(depth int) *task.Node
	build = func(depth int) *task.Node {
		if depth == 0 || rng.Intn(3) == 0 {
			return task.Leaf(int64(rng.Intn(3000) + 50))
		}
		switch rng.Intn(3) {
		case 0: // fork
			n := rng.Intn(4) + 2
			children := make([]*task.Node, n)
			for i := range children {
				children[i] = build(depth - 1)
			}
			return task.Fork(int64(rng.Intn(200)), int64(rng.Intn(500)), children...)
		case 1: // barriered phases
			phases := rng.Intn(4) + 1
			stages := make([]task.Stage, phases)
			for i := range stages {
				cn := rng.Intn(6) + 1
				children := make([]*task.Node, cn)
				for j := range children {
					children[j] = build(depth - 1)
				}
				stages[i] = task.Stage{Work: int64(rng.Intn(300)), Children: children}
			}
			return task.Phases(stages...)
		default: // serial chain
			return task.Chain(build(depth-1), build(depth-1))
		}
	}
	return &task.Graph{
		Name:         name,
		Root:         build(3),
		MemIntensity: rng.Float64(),
	}
}

// TestStressRandomGraphs fuzzes the machine: random graphs, random
// policies, random program counts and arrivals, with the invariant
// checker on. Every configuration must terminate with the requested runs.
func TestStressRandomGraphs(t *testing.T) {
	policies := []Policy{ABP, EP, DWS, DWSNC}
	for iter := 0; iter < 40; iter++ {
		rng := rand.New(rand.NewSource(int64(iter)))
		nProgs := rng.Intn(3) + 1
		graphs := make([]*task.Graph, nProgs)
		for i := range graphs {
			graphs[i] = randomGraph(rng, "g")
			if err := task.Validate(graphs[i]); err != nil {
				t.Fatalf("iter %d: invalid random graph: %v", iter, err)
			}
		}
		cfg := debugConfig(policies[rng.Intn(len(policies))])
		cfg.Cores = []int{2, 4, 8, 16}[rng.Intn(4)]
		cfg.SocketSize = cfg.Cores / (rng.Intn(2) + 1)
		cfg.TSleep = 0
		cfg.Seed = int64(iter)
		_ = rng.Intn(4) // the retired work-sharing draw keeps later draws in place
		if nProgs > cfg.Cores {
			nProgs = cfg.Cores
			graphs = graphs[:nProgs]
		}
		var joins []int64
		if rng.Intn(2) == 0 {
			joins = make([]int64, nProgs)
			for i := 1; i < nProgs; i++ {
				joins[i] = int64(rng.Intn(20_000))
			}
		}
		m, err := NewMachine(cfg, graphs)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		res, err := m.Run(RunOpts{
			TargetRuns: rng.Intn(2) + 1,
			HorizonUS:  600_000_000_000,
			JoinsUS:    joins,
		})
		if err != nil {
			t.Fatalf("iter %d (%v, k=%d, m=%d): %v",
				iter, cfg.Policy, cfg.Cores, nProgs, err)
		}
		for _, p := range res.Programs {
			if p.Runs() < 1 {
				t.Fatalf("iter %d: a program completed no runs", iter)
			}
		}
	}
}
