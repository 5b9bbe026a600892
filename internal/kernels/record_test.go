package kernels

import (
	"testing"

	"dws/internal/rt"
	"dws/internal/task"
)

// TestRecordRealKernels: every parallel kernel records into a valid
// task graph — the bridge that derives simulator workloads from real
// code (rt.RecordGraph).
func TestRecordRealKernels(t *testing.T) {
	cases := []struct {
		name     string
		task     rt.Task
		minNodes int
	}{
		{"heat", HeatTask(NewGrid(64, 32), 4), 16},
		{"sor", SORTask(NewGrid(64, 32), 3, 1.5), 12},
		{"mergesort", MergesortTask(RandSlice(8*msCutoff, 1)), 15},
		{"fft", FFTTask(randComplexBench(1 << 11)), 7},
		{"ge", func() rt.Task {
			n := 32
			a := DiagonallyDominant(n, 1)
			b := make([]float64, n)
			x := make([]float64, n)
			ok := new(bool)
			return GETask(a, b, n, x, ok)
		}(), 32},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			g := rt.RecordGraph(tc.name, 0.5, tc.task)
			if err := task.Validate(g); err != nil {
				t.Fatal(err)
			}
			m := task.Analyze(g)
			if m.Nodes < tc.minNodes {
				t.Fatalf("recorded %d nodes, want >= %d", m.Nodes, tc.minNodes)
			}
			t.Logf("%s recorded: %v", tc.name, m)
		})
	}
}

// TestRecordedGraphRunsInSimulator: a recorded kernel graph round-trips
// into the simulator.
func TestRecordedGraphRunsInSimulator(t *testing.T) {
	g := rt.RecordGraph("heat-recorded", 0.8, HeatTask(NewGrid(64, 32), 4))
	// The simulator lives one package over; validate the contract here
	// (structure + positive work) — sim integration is covered by the
	// bench package, which accepts any valid Graph.
	if err := task.Validate(g); err != nil {
		t.Fatal(err)
	}
	if task.Analyze(g).Work <= 0 {
		t.Fatal("recorded graph has no work")
	}
}
