package sim

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"dws/internal/task"
)

func mustMachine(t *testing.T, cfg Config, graphs []*task.Graph) *Machine {
	t.Helper()
	m, err := NewMachine(cfg, graphs)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func debugConfig(pol Policy) Config {
	cfg := DefaultConfig()
	cfg.Policy = pol
	cfg.Debug = true
	return cfg
}

// TestInvariantsHoldUnderAllPolicies runs a mixed scenario with the
// invariant checker enabled after every event.
func TestInvariantsHoldUnderAllPolicies(t *testing.T) {
	for _, pol := range []Policy{ABP, EP, DWS, DWSNC} {
		a := &task.Graph{Name: "a", Root: task.DivideAndConquer(7, 2, 1500, 10, 20), MemIntensity: 0.4}
		b := &task.Graph{Name: "b", Root: task.IterativeFor(40, 24, 900, 5), MemIntensity: 0.7}
		m := mustMachine(t, debugConfig(pol), []*task.Graph{a, b})
		if _, err := m.Run(RunOpts{TargetRuns: 3, HorizonUS: 60_000_000_000}); err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
	}
}

// TestDeterminism: identical configuration and seed produce bit-identical
// results.
func TestDeterminism(t *testing.T) {
	run := func() *Results {
		a := &task.Graph{Name: "a", Root: task.DivideAndConquer(7, 2, 1200, 10, 20), MemIntensity: 0.5}
		b := &task.Graph{Name: "b", Root: task.IterativeFor(30, 20, 800, 5), MemIntensity: 0.6}
		cfg := DefaultConfig()
		cfg.Policy = DWS
		cfg.Seed = 42
		m := mustMachine(t, cfg, []*task.Graph{a, b})
		res, err := m.Run(RunOpts{TargetRuns: 3, HorizonUS: 60_000_000_000})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	r1, r2 := run(), run()
	if r1.EndTimeUS != r2.EndTimeUS || r1.Events != r2.Events {
		t.Fatalf("nondeterministic: end %d/%d events %d/%d",
			r1.EndTimeUS, r2.EndTimeUS, r1.Events, r2.Events)
	}
	if !reflect.DeepEqual(r1.Programs, r2.Programs) {
		t.Fatal("nondeterministic program results")
	}
}

// TestSeedChangesOutcome: a different seed changes the schedule without
// changing correctness.
func TestSeedChangesOutcome(t *testing.T) {
	run := func(seed int64) *Results {
		a := &task.Graph{Name: "a", Root: task.DivideAndConquer(7, 2, 1200, 10, 20)}
		b := &task.Graph{Name: "b", Root: task.IterativeFor(30, 20, 800, 5)}
		cfg := DefaultConfig()
		cfg.Policy = DWS
		cfg.Seed = seed
		m := mustMachine(t, cfg, []*task.Graph{a, b})
		res, err := m.Run(RunOpts{TargetRuns: 2, HorizonUS: 60_000_000_000})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	r1, r2 := run(1), run(2)
	if r1.EndTimeUS == r2.EndTimeUS && r1.Events == r2.Events {
		t.Fatal("different seeds produced identical schedules (suspicious)")
	}
	// Results stay in the same ballpark (same workload).
	for i := range r1.Programs {
		a, b := r1.Programs[i].MeanRunUS(), r2.Programs[i].MeanRunUS()
		if a > 2*b || b > 2*a {
			t.Fatalf("program %d: seed variance too large (%v vs %v)", i, a, b)
		}
	}
}

// TestWorkConservation: executed work equals graph work × completed runs
// (no work is lost or invented by scheduling).
func TestWorkConservation(t *testing.T) {
	for _, pol := range []Policy{ABP, EP, DWS, DWSNC} {
		g := &task.Graph{Name: "g", Root: task.DivideAndConquer(6, 2, 2000, 15, 25)}
		want := float64(task.Analyze(g).Work)
		cfg := DefaultConfig()
		cfg.Policy = pol
		m := mustMachine(t, cfg, []*task.Graph{g})
		res, err := m.Run(RunOpts{TargetRuns: 3, HorizonUS: 60_000_000_000})
		if err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		runs := float64(res.Programs[0].Runs())
		got := res.Programs[0].Stats.WorkUS
		if math.Abs(got-want*runs) > 1 {
			t.Fatalf("%v: executed %.1fµs of work, want %.1f × %v runs", pol, got, want, runs)
		}
	}
}

// TestUtilizationBounds: utilization is within (0, 1].
func TestUtilizationBounds(t *testing.T) {
	g := &task.Graph{Name: "g", Root: task.ParallelFor(64, 3000)}
	cfg := DefaultConfig()
	cfg.Policy = EP
	m := mustMachine(t, cfg, []*task.Graph{g})
	res, err := m.Run(RunOpts{TargetRuns: 2, HorizonUS: 60_000_000_000})
	if err != nil {
		t.Fatal(err)
	}
	u := res.Utilization()
	if u <= 0 || u > 1.0000001 {
		t.Fatalf("utilization = %v", u)
	}
	if res.String() == "" {
		t.Fatal("empty Results.String")
	}
}

// TestConstructorErrors covers NewMachine validation.
func TestConstructorErrors(t *testing.T) {
	good := &task.Graph{Name: "g", Root: task.Leaf(10)}
	if _, err := NewMachine(DefaultConfig(), nil); !errors.Is(err, ErrNoPrograms) {
		t.Fatalf("no graphs: %v", err)
	}
	cfg := DefaultConfig()
	cfg.Cores = 1
	if _, err := NewMachine(cfg, []*task.Graph{good, good}); !errors.Is(err, ErrTooManyProg) {
		t.Fatalf("too many programs: %v", err)
	}
	bad := &task.Graph{Name: "bad", Root: nil}
	if _, err := NewMachine(DefaultConfig(), []*task.Graph{bad}); err == nil {
		t.Fatal("nil-root graph accepted")
	}
	cfg = DefaultConfig()
	cfg.Cores = 0
	if _, err := NewMachine(cfg, []*task.Graph{good}); !errors.Is(err, ErrNoCores) {
		t.Fatalf("zero cores: %v", err)
	}
}

// TestHorizonError: an unreachable target trips the horizon.
func TestHorizonError(t *testing.T) {
	g := &task.Graph{Name: "g", Root: task.Leaf(1_000_000)}
	m := mustMachine(t, DefaultConfig(), []*task.Graph{g})
	if _, err := m.Run(RunOpts{TargetRuns: 100, HorizonUS: 50_000}); !errors.Is(err, ErrHorizon) {
		t.Fatalf("err = %v, want ErrHorizon", err)
	}
}

// TestMaxEventsError: the runaway valve fires.
func TestMaxEventsError(t *testing.T) {
	g := &task.Graph{Name: "g", Root: task.ParallelFor(256, 500)}
	cfg := DefaultConfig()
	cfg.MaxEvents = 100
	m := mustMachine(t, cfg, []*task.Graph{g})
	if _, err := m.Run(RunOpts{TargetRuns: 5}); !errors.Is(err, ErrExploded) {
		t.Fatalf("err = %v, want ErrExploded", err)
	}
}

// TestSingleCoreMachine: everything still works at k=1.
func TestSingleCoreMachine(t *testing.T) {
	g := &task.Graph{Name: "g", Root: task.DivideAndConquer(4, 2, 500, 5, 5)}
	cfg := debugConfig(DWS)
	cfg.Cores = 1
	cfg.SocketSize = 1
	m := mustMachine(t, cfg, []*task.Graph{g})
	res, err := m.Run(RunOpts{TargetRuns: 2, HorizonUS: 60_000_000_000})
	if err != nil {
		t.Fatal(err)
	}
	want := float64(task.Analyze(g).Work) * 2
	mean := res.Programs[0].MeanRunUS()
	if mean < want/2-1 {
		t.Fatalf("single core ran 2 runs of %.0fµs work in %.0fµs each", want/2, mean)
	}
}

// TestThreeProgramsDWS: m=3 exercises uneven home allocation (16/3).
func TestThreeProgramsDWS(t *testing.T) {
	graphs := []*task.Graph{
		{Name: "a", Root: task.DivideAndConquer(6, 2, 1000, 10, 10)},
		{Name: "b", Root: task.IterativeFor(20, 20, 600, 5)},
		{Name: "c", Root: task.ParallelFor(64, 900)},
	}
	m := mustMachine(t, debugConfig(DWS), graphs)
	res, err := m.Run(RunOpts{TargetRuns: 2, HorizonUS: 120_000_000_000})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Programs {
		if p.Runs() < 2 {
			t.Fatalf("%s finished %d runs", p.Name, p.Runs())
		}
	}
}

// TestPolicyStrings covers the String methods.
func TestPolicyStrings(t *testing.T) {
	cases := map[Policy]string{ABP: "ABP", EP: "EP", DWS: "DWS", DWSNC: "DWS-NC", Policy(9): "Policy(9)"}
	for pol, want := range cases {
		if got := pol.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(pol), got, want)
		}
	}
	states := map[wState]string{
		wOff: "off", wSleeping: "sleeping", wWaking: "waking",
		wReady: "ready", wRunning: "running", wSpinning: "spinning", wState(9): "?",
	}
	for s, want := range states {
		if got := s.String(); got != want {
			t.Errorf("state %d = %q, want %q", int(s), got, want)
		}
	}
}

// TestParsePolicy: every policy parses back from its own String, in any
// case; a name that is not a policy is refused with the valid ones listed.
func TestParsePolicy(t *testing.T) {
	for pol := ABP; pol <= GO; pol++ {
		for _, name := range []string{pol.String(), strings.ToLower(pol.String())} {
			if got, err := ParsePolicy(name); err != nil || got != pol {
				t.Errorf("ParsePolicy(%q) = %v, %v; want %v", name, got, err, pol)
			}
		}
	}
	if got, err := ParsePolicy("dwsnc"); err != nil || got != DWSNC {
		t.Errorf("ParsePolicy(dwsnc) = %v, %v", got, err)
	}
	_, err := ParsePolicy("bws")
	if err == nil || !strings.Contains(err.Error(), "ABP, EP, DWS, DWS-NC, GO") {
		t.Errorf("ParsePolicy(bws) error = %v, want the valid names", err)
	}
}

// TestConfigValidation covers the error paths of Config.Validate.
func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Cores = -1 },
		func(c *Config) { c.QuantumUS = 0 },
		func(c *Config) { c.StealCostUS = 0 },
		func(c *Config) { c.CtxSwitchUS = -1 },
		func(c *Config) { c.StealYieldUS = -1 },
		func(c *Config) { c.WakeLatencyUS = -1 },
		func(c *Config) { c.CoordCostUS = -1 },
		func(c *Config) { c.CachePenalty = 0.5 },
		func(c *Config) { c.CacheWarmUS = -1 },
		func(c *Config) { c.LLCPenalty = -1 },
		func(c *Config) { c.SpinContention = -0.1 },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	// Defaults fill in.
	cfg := DefaultConfig()
	cfg.SocketSize = 0
	cfg.TSleep = 0
	cfg.CoordPeriodUS = 0
	cfg.MaxEvents = 0
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.SocketSize != cfg.Cores || cfg.TSleep != cfg.Cores ||
		cfg.CoordPeriodUS != 10000 || cfg.MaxEvents == 0 {
		t.Fatalf("defaults not filled: %+v", cfg)
	}
}
