package sim

import (
	"reflect"
	"testing"

	"dws/internal/task"
	"dws/internal/trace"
)

func arbGraphs() []*task.Graph {
	a := &task.Graph{Name: "a", Root: task.DivideAndConquer(7, 2, 1200, 10, 20), MemIntensity: 0.4}
	b := &task.Graph{Name: "b", Root: task.DivideAndConquer(7, 2, 1200, 10, 20), MemIntensity: 0.4}
	return []*task.Graph{a, b}
}

// TestArbiterEqualWeightsBitIdentical pins the degenerate-exactness
// contract: with equal weights and every program active the arbiter
// publishes exactly the static HomeCores split and charges no simulated
// cost, so the run is bit-identical to an arbiter-disabled one (this is
// what keeps the schedcheck conformance oracle green with arbitration on).
func TestArbiterEqualWeightsBitIdentical(t *testing.T) {
	run := func(arbPeriod int64) *Results {
		cfg := DefaultConfig()
		cfg.Policy = DWS
		cfg.Seed = 7
		cfg.ArbiterPeriodUS = arbPeriod
		cfg.Debug = true
		m := mustMachine(t, cfg, arbGraphs())
		res, err := m.Run(RunOpts{TargetRuns: 3, HorizonUS: 60_000_000_000})
		if err != nil {
			t.Fatal(err)
		}
		if arbPeriod > 0 {
			ents := m.Entitlements()
			if ents[0] != 8 || ents[1] != 8 {
				t.Fatalf("equal-weight entitlements = %v, want [8 8 ...]", ents)
			}
		}
		return res
	}
	static, arbitrated := run(0), run(1000)
	if static.EndTimeUS != arbitrated.EndTimeUS {
		t.Fatalf("end time diverged: static %d vs arbitrated %d",
			static.EndTimeUS, arbitrated.EndTimeUS)
	}
	if !reflect.DeepEqual(static.Programs, arbitrated.Programs) {
		t.Fatal("per-program results diverged under an equal-weight arbiter")
	}
}

// TestArbiterWeightedShiftsEntitlements: a 2:1 weighted co-run of two
// identical saturating programs must settle on the weighted apportionment
// (5, 3 of 16 → 10.67, 5.33 → floors at 5/2 → (11, 5)), and the heavy
// program must finish its runs faster.
func TestArbiterWeightedShiftsEntitlements(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Policy = DWS
	cfg.Seed = 7
	cfg.ArbiterPeriodUS = 1000
	cfg.Weights = []float64{2, 1}
	cfg.Debug = true
	m := mustMachine(t, cfg, arbGraphs())

	entRows := 0
	m.Observe = func(ev trace.Event) {
		if ev.Kind == trace.Entitle {
			entRows++
		}
	}
	res, err := m.Run(RunOpts{TargetRuns: 3, HorizonUS: 60_000_000_000})
	if err != nil {
		t.Fatal(err)
	}
	ents := m.Entitlements()
	if ents[0] != 11 || ents[1] != 5 {
		t.Fatalf("2:1 entitlements = %v, want [11 5 ...]", ents)
	}
	if entRows == 0 {
		t.Fatal("no entitle events emitted")
	}
	heavy := res.Programs[0].MeanRunUS()
	light := res.Programs[1].MeanRunUS()
	if heavy >= light {
		t.Fatalf("weight-2 program mean run %v ≥ weight-1 program %v", heavy, light)
	}
}

func TestArbiterRequiresDWSSim(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Policy = EP
	cfg.ArbiterPeriodUS = 1000
	if err := cfg.Validate(); err == nil {
		t.Fatal("ArbiterPeriodUS accepted under EP")
	}
}

func TestArbiterWeightsLengthMismatch(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Policy = DWS
	cfg.ArbiterPeriodUS = 1000
	cfg.Weights = []float64{2, 1, 1}
	if _, err := NewMachine(cfg, arbGraphs()); err == nil {
		t.Fatal("weight/program count mismatch accepted")
	}
}
