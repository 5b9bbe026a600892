package sim

import (
	"testing"

	"dws/internal/task"
	"dws/internal/trace"
	"dws/internal/workload"
)

// wideGraph always wants more cores than its share.
func wideGraph() *task.Graph {
	return &task.Graph{Name: "wide", Root: task.DivideAndConquer(8, 2, 2000, 10, 20)}
}

// narrowGraph is dominated by one long serial lump; it cannot use most of
// its share.
func narrowGraph() *task.Graph {
	return &task.Graph{Name: "narrow", Root: task.Imbalanced(600_000, 0.8, 16)}
}

// TestDWSReleasesAndClaims: co-running wide+narrow under DWS, the narrow
// program releases cores (sleeps) and the wide one takes them (claims),
// pushing the wide program's core usage past its even share.
func TestDWSReleasesAndClaims(t *testing.T) {
	m := mustMachine(t, debugConfig(DWS), []*task.Graph{wideGraph(), narrowGraph()})
	res, err := m.Run(RunOpts{TargetRuns: 3, HorizonUS: 120_000_000_000})
	if err != nil {
		t.Fatal(err)
	}
	wide, narrow := res.Programs[0].Stats, res.Programs[1].Stats
	if narrow.Sleeps == 0 {
		t.Error("narrow program never put a worker to sleep")
	}
	if wide.Claims == 0 {
		t.Error("wide program never claimed a free core")
	}
	if wide.Wakes == 0 {
		t.Error("wide program never woke a worker")
	}
}

// TestDWSReclaimAndEvict: after the wide program borrows the narrow one's
// cores, the narrow program's demand bursts force reclaims, which evict
// the borrower's workers.
func TestDWSReclaimAndEvict(t *testing.T) {
	// Narrow program alternates serial phases with wide bursts, so its
	// coordinator must take cores back repeatedly.
	bursty := &task.Graph{Name: "bursty", Root: func() *task.Node {
		var stages []task.Stage
		for i := 0; i < 10; i++ {
			stages = append(stages, task.Stage{Work: 30_000, Children: []*task.Node{task.Leaf(1000)}})
			wide := make([]*task.Node, 32)
			for j := range wide {
				wide[j] = task.Leaf(2500)
			}
			stages = append(stages, task.Stage{Work: 10, Children: wide})
		}
		return task.Phases(stages...)
	}()}
	m := mustMachine(t, debugConfig(DWS), []*task.Graph{wideGraph(), bursty})
	res, err := m.Run(RunOpts{TargetRuns: 3, HorizonUS: 120_000_000_000})
	if err != nil {
		t.Fatal(err)
	}
	wide, b := res.Programs[0].Stats, res.Programs[1].Stats
	if b.Reclaims == 0 {
		t.Errorf("bursty program never reclaimed a home core (stats: %+v)", b)
	}
	if wide.Evictions == 0 {
		t.Errorf("wide program was never evicted (stats: %+v)", wide)
	}
}

// TestDWSNCNoTableActivity: DWS-NC sleeps and wakes but never touches the
// allocation table.
func TestDWSNCNoTableActivity(t *testing.T) {
	m := mustMachine(t, debugConfig(DWSNC), []*task.Graph{wideGraph(), narrowGraph()})
	res, err := m.Run(RunOpts{TargetRuns: 2, HorizonUS: 120_000_000_000})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Programs {
		if p.Stats.Claims != 0 || p.Stats.Reclaims != 0 || p.Stats.Evictions != 0 {
			t.Fatalf("%s: table activity under DWS-NC: %+v", p.Name, p.Stats)
		}
	}
	if res.Programs[1].Stats.Sleeps == 0 {
		t.Error("narrow program never slept under DWS-NC")
	}
	if res.Programs[0].Stats.Wakes == 0 && res.Programs[1].Stats.Wakes == 0 {
		t.Error("no wakes under DWS-NC")
	}
}

// TestEPNeverSleepsOrSteals: EP workers have no sleep mechanism and only
// steal within their partition.
func TestEPNeverSleepsOrSteals(t *testing.T) {
	m := mustMachine(t, debugConfig(EP), []*task.Graph{wideGraph(), narrowGraph()})
	res, err := m.Run(RunOpts{TargetRuns: 2, HorizonUS: 120_000_000_000})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Programs {
		st := p.Stats
		if st.Sleeps != 0 || st.Wakes != 0 || st.Claims != 0 || st.Reclaims != 0 || st.Evictions != 0 {
			t.Fatalf("%s: DWS machinery active under EP: %+v", p.Name, st)
		}
	}
}

// TestABPNoCoordinator: ABP has neither sleeps nor coordinator ticks.
func TestABPNoCoordinator(t *testing.T) {
	m := mustMachine(t, debugConfig(ABP), []*task.Graph{wideGraph(), narrowGraph()})
	res, err := m.Run(RunOpts{TargetRuns: 2, HorizonUS: 120_000_000_000})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Programs {
		if p.Stats.CoordTicks != 0 || p.Stats.Sleeps != 0 {
			t.Fatalf("%s: coordinator/sleep active under ABP: %+v", p.Name, p.Stats)
		}
	}
}

// TestCoordinatorTicksCounted: DWS coordinators tick roughly every T.
func TestCoordinatorTicksCounted(t *testing.T) {
	g := wideGraph()
	cfg := debugConfig(DWS)
	cfg.CoordPeriodUS = 5000
	m := mustMachine(t, cfg, []*task.Graph{g})
	res, err := m.Run(RunOpts{TargetRuns: 2, HorizonUS: 120_000_000_000})
	if err != nil {
		t.Fatal(err)
	}
	ticks := res.Programs[0].Stats.CoordTicks
	expect := res.EndTimeUS / 5000
	if ticks < expect/2 || ticks > expect+2 {
		t.Fatalf("coordinator ticked %d times over %dµs (expected ≈%d)",
			ticks, res.EndTimeUS, expect)
	}
}

// TestTraceEmitsProtocolEvents: the Observe hook reports the protocol's
// vocabulary during a DWS co-run.
func TestTraceEmitsProtocolEvents(t *testing.T) {
	m := mustMachine(t, debugConfig(DWS), []*task.Graph{wideGraph(), narrowGraph()})
	seen := map[trace.Kind]int{}
	m.Observe = func(ev trace.Event) { seen[ev.Kind]++ }
	if _, err := m.Run(RunOpts{TargetRuns: 2, HorizonUS: 120_000_000_000}); err != nil {
		t.Fatal(err)
	}
	for _, want := range []trace.Kind{trace.Sleep, trace.Wake, trace.Release, trace.Claim, trace.CoordTick, trace.RunDone} {
		if seen[want] == 0 {
			t.Errorf("trace missing %v events (saw %v)", want, seen)
		}
	}
}

// TestClaimReclaimEventsMatchStats: every claim and reclaim a program
// counts is on its event stream, the ones regrabHome makes when a run
// restarts included — as the live runtime emits them.
func TestClaimReclaimEventsMatchStats(t *testing.T) {
	var graphs []*task.Graph
	for _, id := range []string{"p-1", "p-8"} {
		b, err := workload.ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, b.Make(0.2))
	}
	m := mustMachine(t, DefaultConfig(), graphs)
	claims, reclaims := map[int32]int64{}, map[int32]int64{}
	m.Observe = func(ev trace.Event) {
		switch ev.Kind {
		case trace.Claim:
			claims[ev.Prog]++
		case trace.Reclaim:
			reclaims[ev.Prog]++
		}
	}
	res, err := m.Run(RunOpts{TargetRuns: 3})
	if err != nil {
		t.Fatal(err)
	}
	total := int64(0)
	for i, p := range res.Programs {
		pid := int32(i + 1)
		if claims[pid] != p.Stats.Claims || reclaims[pid] != p.Stats.Reclaims {
			t.Errorf("%s: stream has %d claims and %d reclaims, stats count %d and %d",
				p.Name, claims[pid], reclaims[pid], p.Stats.Claims, p.Stats.Reclaims)
		}
		total += p.Stats.Reclaims
	}
	if total == 0 {
		t.Fatal("no reclaims: the co-run no longer exercises regrabHome")
	}
}

// TestStealsOccur: work actually migrates between workers.
func TestStealsOccur(t *testing.T) {
	g := &task.Graph{Name: "g", Root: task.ParallelFor(128, 1500)}
	for _, pol := range []Policy{ABP, EP, DWS, DWSNC} {
		m := mustMachine(t, debugConfig(pol), []*task.Graph{g})
		res, err := m.Run(RunOpts{TargetRuns: 1, HorizonUS: 60_000_000_000})
		if err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		if res.Programs[0].Stats.Steals == 0 {
			t.Errorf("%v: no steals for a 128-leaf parallel loop", pol)
		}
	}
}
