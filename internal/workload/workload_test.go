package workload

import (
	"testing"

	"dws/internal/task"
)

// TestAllGraphsValid validates every registry benchmark at several scales.
func TestAllGraphsValid(t *testing.T) {
	for _, b := range Registry {
		for _, scale := range []float64{0.05, 0.25, 1.0} {
			g := b.Make(scale)
			if err := task.Validate(g); err != nil {
				t.Errorf("%s scale %.2f: %v", b.ID, scale, err)
			}
			if g.Name != b.Name {
				t.Errorf("%s: graph name %q != benchmark name %q", b.ID, g.Name, b.Name)
			}
		}
	}
}

// TestParallelismProfiles pins the intended demand profile of each
// benchmark: FFT/Heat/SOR are wide, Mergesort is narrow, the
// factorisations sit in between.
func TestParallelismProfiles(t *testing.T) {
	par := map[string]float64{}
	for _, b := range Registry {
		m := task.Analyze(b.Make(1.0))
		par[b.Name] = m.Parallelism()
		t.Logf("%-9s %v", b.Name, m)
	}
	if par["FFT"] < 32 {
		t.Errorf("FFT parallelism %.1f, want wide (>=32)", par["FFT"])
	}
	if par["Heat"] < 32 {
		t.Errorf("Heat parallelism %.1f, want wide (>=32)", par["Heat"])
	}
	if par["SOR"] < 16 {
		t.Errorf("SOR parallelism %.1f, want wide (>=16)", par["SOR"])
	}
	if par["Mergesort"] > 16 {
		t.Errorf("Mergesort parallelism %.1f, want narrow (<=16)", par["Mergesort"])
	}
	if par["Mergesort"] < 4 {
		t.Errorf("Mergesort parallelism %.1f, implausibly narrow", par["Mergesort"])
	}
	for _, n := range []string{"Cholesky", "LU", "GE", "PNN"} {
		if par[n] < 10 || par[n] > 64 {
			t.Errorf("%s parallelism %.1f, want medium (10..64)", n, par[n])
		}
	}
}

// TestScaleMonotonic: scaling up increases total work.
func TestScaleMonotonic(t *testing.T) {
	for _, b := range Registry {
		small := task.Analyze(b.Make(0.1)).Work
		big := task.Analyze(b.Make(1.0)).Work
		if big <= small {
			t.Errorf("%s: work at scale 1.0 (%d) <= work at 0.1 (%d)", b.ID, big, small)
		}
	}
}

// TestSoloRunSizes: at scale 1.0, every benchmark's ideal 16-core run time
// sits in the hundreds of milliseconds (so coordinator ramps are noise,
// like the paper's seconds-scale inputs).
func TestSoloRunSizes(t *testing.T) {
	for _, b := range Registry {
		m := task.Analyze(b.Make(1.0))
		ideal := float64(m.Work) / 16
		if s := float64(m.Span); s > ideal {
			ideal = s
		}
		if ideal < 100_000 || ideal > 2_000_000 {
			t.Errorf("%s: ideal run %.0fµs outside [100ms, 2s]", b.ID, ideal)
		}
	}
}

// TestNodeBudget keeps event counts manageable for the harness.
func TestNodeBudget(t *testing.T) {
	for _, b := range Registry {
		m := task.Analyze(b.Make(1.0))
		if m.Nodes > 40_000 {
			t.Errorf("%s: %d nodes, too many for the simulator budget", b.ID, m.Nodes)
		}
	}
}

func TestLookup(t *testing.T) {
	b, err := ByID("p-6")
	if err != nil || b.Name != "Heat" {
		t.Fatalf("ByID(p-6) = %v, %v", b, err)
	}
	if _, err := ByID("p-99"); err == nil {
		t.Fatal("ByID(p-99) succeeded")
	}
	b, err = ByName("SOR")
	if err != nil || b.ID != "p-7" {
		t.Fatalf("ByName(SOR) = %v, %v", b, err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("ByName(nope) succeeded")
	}
	if n := len(IDs()); n != 11 {
		t.Fatalf("IDs() has %d entries, want 8 paper + 3 synthetic", n)
	}
	// Synthetics resolve through the lookups but stay out of Registry.
	b, err = ByID("s-3")
	if err != nil || b.Name != "Bursty" {
		t.Fatalf("ByID(s-3) = %v, %v", b, err)
	}
	if _, err := ByName("Wide"); err != nil {
		t.Fatalf("ByName(Wide): %v", err)
	}
	if len(Registry) != 8 {
		t.Fatalf("Registry has %d entries, want the paper's 8", len(Registry))
	}
}

func TestSyntheticValid(t *testing.T) {
	for _, mk := range []func(float64) *task.Graph{Wide, Serialish, Bursty} {
		g := mk(1.0)
		if err := task.Validate(g); err != nil {
			t.Errorf("%s: %v", g.Name, err)
		}
	}
	// Serialish must be genuinely narrow; Wide genuinely wide.
	if p := task.Analyze(Serialish(1)).Parallelism(); p > 2 {
		t.Errorf("Serialish parallelism %.1f, want <= 2", p)
	}
	if p := task.Analyze(Wide(1)).Parallelism(); p < 50 {
		t.Errorf("Wide parallelism %.1f, want >= 50", p)
	}
}

// TestBuilderPins pins what every builder lays out — work, span, node
// count and depth at three scales, recorded from the one-allocation-per-
// node builders — and that the layout is a tree of distinct nodes: a slab
// builder that handed one slot out twice would pass Analyze and fail here.
func TestBuilderPins(t *testing.T) {
	pins := []struct {
		id    string
		scale float64
		want  task.Metrics
	}{
		{"p-1", 0.05, task.Metrics{Work: 205000, Span: 3400, Nodes: 1281, MaxDepth: 2}},
		{"p-1", 0.25, task.Metrics{Work: 1024200, Span: 16200, Nodes: 1281, MaxDepth: 2}},
		{"p-1", 1, task.Metrics{Work: 4096200, Span: 64200, Nodes: 1281, MaxDepth: 2}},
		{"p-2", 0.05, task.Metrics{Work: 154240, Span: 4480, Nodes: 1281, MaxDepth: 2}},
		{"p-2", 0.25, task.Metrics{Work: 768640, Span: 19840, Nodes: 1281, MaxDepth: 2}},
		{"p-2", 1, task.Metrics{Work: 3072640, Span: 77440, Nodes: 1281, MaxDepth: 2}},
		{"p-3", 0.05, task.Metrics{Work: 95700, Span: 6240, Nodes: 530, MaxDepth: 2}},
		{"p-3", 0.25, task.Metrics{Work: 478500, Span: 31200, Nodes: 530, MaxDepth: 2}},
		{"p-3", 1, task.Metrics{Work: 1914000, Span: 124800, Nodes: 530, MaxDepth: 2}},
		{"p-4", 0.05, task.Metrics{Work: 115340, Span: 6000, Nodes: 822, MaxDepth: 2}},
		{"p-4", 0.25, task.Metrics{Work: 576700, Span: 30000, Nodes: 822, MaxDepth: 2}},
		{"p-4", 1, task.Metrics{Work: 2306800, Span: 120000, Nodes: 822, MaxDepth: 2}},
		{"p-5", 0.05, task.Metrics{Work: 94560, Span: 6360, Nodes: 769, MaxDepth: 2}},
		{"p-5", 0.25, task.Metrics{Work: 470880, Span: 29880, Nodes: 769, MaxDepth: 2}},
		{"p-5", 1, task.Metrics{Work: 1882080, Span: 118080, Nodes: 769, MaxDepth: 2}},
		{"p-6", 0.05, task.Metrics{Work: 384500, Span: 8500, Nodes: 4801, MaxDepth: 2}},
		{"p-6", 0.25, task.Metrics{Work: 1920500, Span: 40500, Nodes: 4801, MaxDepth: 2}},
		{"p-6", 1, task.Metrics{Work: 7680500, Span: 160500, Nodes: 4801, MaxDepth: 2}},
		{"p-7", 0.05, task.Metrics{Work: 433200, Span: 22800, Nodes: 4801, MaxDepth: 2}},
		{"p-7", 0.25, task.Metrics{Work: 2161200, Span: 109200, Nodes: 4801, MaxDepth: 2}},
		{"p-7", 1, task.Metrics{Work: 8641200, Span: 433200, Nodes: 4801, MaxDepth: 2}},
		{"p-8", 0.05, task.Metrics{Work: 156150, Span: 15740, Nodes: 511, MaxDepth: 9}},
		{"p-8", 0.25, task.Metrics{Work: 770550, Span: 78380, Nodes: 511, MaxDepth: 9}},
		{"p-8", 1, task.Metrics{Work: 3074550, Span: 313280, Nodes: 511, MaxDepth: 9}},
		{"s-1", 0.05, task.Metrics{Work: 133060, Span: 740, Nodes: 1023, MaxDepth: 10}},
		{"s-1", 0.25, task.Metrics{Work: 542660, Span: 1540, Nodes: 1023, MaxDepth: 10}},
		{"s-1", 1, task.Metrics{Work: 2078660, Span: 4540, Nodes: 1023, MaxDepth: 10}},
		{"s-2", 0.05, task.Metrics{Work: 19984, Span: 14000, Nodes: 35, MaxDepth: 3}},
		{"s-2", 0.25, task.Metrics{Work: 99984, Span: 70000, Nodes: 35, MaxDepth: 3}},
		{"s-2", 1, task.Metrics{Work: 400000, Span: 280000, Nodes: 35, MaxDepth: 3}},
		{"s-3", 0.05, task.Metrics{Work: 52320, Span: 9120, Nodes: 601, MaxDepth: 2}},
		{"s-3", 0.25, task.Metrics{Work: 261120, Span: 45120, Nodes: 601, MaxDepth: 2}},
		{"s-3", 1, task.Metrics{Work: 1044120, Span: 180120, Nodes: 601, MaxDepth: 2}},
	}
	if want := 3 * len(all()); len(pins) != want {
		t.Fatalf("%d pins for %d builders at three scales", len(pins), len(all()))
	}
	for _, p := range pins {
		b, err := ByID(p.id)
		if err != nil {
			t.Fatal(err)
		}
		g := b.Make(p.scale)
		if got := task.Analyze(g); got != p.want {
			t.Errorf("%s scale %v: %+v, want %+v", p.id, p.scale, got, p.want)
		}
		if err := task.Validate(g); err != nil {
			t.Errorf("%s scale %v: %v", p.id, p.scale, err)
		}
		seen := make(map[*task.Node]bool, p.want.Nodes)
		task.Walk(g, func(n *task.Node, _ int) bool {
			if seen[n] {
				t.Errorf("%s scale %v: node %p reached twice", p.id, p.scale, n)
			}
			seen[n] = true
			return true
		})
		if len(seen) != p.want.Nodes {
			t.Errorf("%s scale %v: Walk reached %d distinct nodes, want %d", p.id, p.scale, len(seen), p.want.Nodes)
		}
	}
}
