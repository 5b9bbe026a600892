package sim

import (
	"math"
	"testing"

	"dws/internal/task"
)

func sharingConfig(pol Policy) Config {
	cfg := debugConfig(pol)
	cfg.WorkSharing = true
	return cfg
}

// TestSharingCompletesAllPolicies: work-sharing mode runs to completion
// under every policy with invariants on.
func TestSharingCompletesAllPolicies(t *testing.T) {
	for _, pol := range []Policy{ABP, EP, DWS, DWSNC} {
		m := mustMachine(t, sharingConfig(pol), []*task.Graph{wideGraph(), narrowGraph()})
		res, err := m.Run(RunOpts{TargetRuns: 2, HorizonUS: 120_000_000_000})
		if err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		for _, p := range res.Programs {
			if p.Runs() < 2 {
				t.Fatalf("%v: %s finished %d runs", pol, p.Name, p.Runs())
			}
		}
	}
}

// TestSharingWorkConservation: no work lost in the central-pool mode.
func TestSharingWorkConservation(t *testing.T) {
	g := &task.Graph{Name: "g", Root: task.DivideAndConquer(6, 2, 2000, 15, 25)}
	want := float64(task.Analyze(g).Work)
	m := mustMachine(t, sharingConfig(DWS), []*task.Graph{g})
	res, err := m.Run(RunOpts{TargetRuns: 3, HorizonUS: 60_000_000_000})
	if err != nil {
		t.Fatal(err)
	}
	runs := float64(res.Programs[0].Runs())
	if got := res.Programs[0].Stats.WorkUS; math.Abs(got-want*runs) > 1 {
		t.Fatalf("executed %.1f work, want %.1f × %v", got, want, runs)
	}
}

// TestSharingDWSStillAdapts: §4.4's claim — the DWS mechanisms work on a
// work-sharing runtime too: the narrow program still releases cores and
// the wide one still claims them.
func TestSharingDWSStillAdapts(t *testing.T) {
	m := mustMachine(t, sharingConfig(DWS), []*task.Graph{wideGraph(), narrowGraph()})
	res, err := m.Run(RunOpts{TargetRuns: 3, HorizonUS: 120_000_000_000})
	if err != nil {
		t.Fatal(err)
	}
	wide, narrow := res.Programs[0].Stats, res.Programs[1].Stats
	if narrow.Sleeps == 0 {
		t.Error("narrow program never released a core under sharing+DWS")
	}
	if wide.Claims == 0 {
		t.Error("wide program never claimed a core under sharing+DWS")
	}
}

// TestSharingDWSBeatsSharingABP: the headline effect carries over to the
// work-sharing model.
func TestSharingDWSBeatsSharingABP(t *testing.T) {
	mean := func(pol Policy) float64 {
		m := mustMachine(t, sharingConfig(pol), []*task.Graph{wideGraph(), narrowGraph()})
		res, err := m.Run(RunOpts{TargetRuns: 3, HorizonUS: 120_000_000_000})
		if err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		return res.Programs[0].MeanRunUS()
	}
	abp, dws := mean(ABP), mean(DWS)
	t.Logf("sharing: ABP=%.0fµs DWS=%.0fµs", abp, dws)
	if dws > abp {
		t.Errorf("sharing DWS (%.0f) not faster than sharing ABP (%.0f)", dws, abp)
	}
}

// TestSharingNoSteals: the central pool replaces stealing entirely.
func TestSharingNoSteals(t *testing.T) {
	g := &task.Graph{Name: "g", Root: task.ParallelFor(64, 1500)}
	m := mustMachine(t, sharingConfig(DWS), []*task.Graph{g})
	res, err := m.Run(RunOpts{TargetRuns: 1, HorizonUS: 60_000_000_000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Programs[0].Stats.Steals != 0 {
		t.Fatalf("steals recorded in sharing mode: %d", res.Programs[0].Stats.Steals)
	}
}
