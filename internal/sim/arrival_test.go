package sim

import (
	"testing"

	"dws/internal/task"
)

// TestArrivalsValidation: mismatched arrival vectors are rejected.
func TestArrivalsValidation(t *testing.T) {
	m := mustMachine(t, debugConfig(DWS), []*task.Graph{wideGraph(), narrowGraph()})
	if _, err := m.Run(RunOpts{TargetRuns: 1, ArrivalsUS: []int64{0}}); err == nil {
		t.Fatal("wrong-length arrivals accepted")
	}
}

// TestStaggeredArrivalCompletes: every policy survives a late second
// program, with invariants checked.
func TestStaggeredArrivalCompletes(t *testing.T) {
	for _, pol := range []Policy{ABP, EP, DWS, DWSNC} {
		m := mustMachine(t, debugConfig(pol), []*task.Graph{wideGraph(), narrowGraph()})
		res, err := m.Run(RunOpts{
			TargetRuns: 2,
			HorizonUS:  240_000_000_000,
			ArrivalsUS: []int64{0, 60_000},
		})
		if err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		for _, p := range res.Programs {
			if p.Runs() < 2 {
				t.Fatalf("%v: %s finished %d runs", pol, p.Name, p.Runs())
			}
		}
		// The late program's first run starts at or after its arrival.
		if start := res.Programs[1].Stats.RunStartsUS[0]; start < 60_000 {
			t.Fatalf("%v: late program started at %dµs", pol, start)
		}
	}
}

// TestDWSElasticity: before its co-runner arrives, a DWS program expands
// over the whole machine (near-solo speed); after the arrival it contracts
// to roughly its co-run speed. EP cannot expand: its pre-arrival runs are
// as slow as its post-arrival ones.
func TestDWSElasticity(t *testing.T) {
	wide := wideGraph()
	other := &task.Graph{Name: "late", Root: task.IterativeFor(30, 24, 900, 5), MemIntensity: 0.5}
	const arrival = 200_000

	split := func(pol Policy) (before, after float64) {
		m := mustMachine(t, debugConfig(pol), []*task.Graph{wide, other})
		res, err := m.Run(RunOpts{
			TargetRuns: 6,
			HorizonUS:  240_000_000_000,
			ArrivalsUS: []int64{0, arrival},
		})
		if err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		st := res.Programs[0].Stats
		nb, na := 0, 0
		for i, start := range st.RunStartsUS {
			if start+st.RunTimesUS[i] <= arrival {
				before += float64(st.RunTimesUS[i])
				nb++
			} else if start >= arrival {
				after += float64(st.RunTimesUS[i])
				na++
			}
		}
		if nb == 0 || na == 0 {
			t.Fatalf("%v: no runs on one side of the arrival (%d/%d)", pol, nb, na)
		}
		return before / float64(nb), after / float64(na)
	}

	dwsBefore, dwsAfter := split(DWS)
	epBefore, epAfter := split(EP)
	t.Logf("DWS before=%.0f after=%.0f | EP before=%.0f after=%.0f",
		dwsBefore, dwsAfter, epBefore, epAfter)

	// DWS expands while alone: clearly faster than its co-run speed.
	if dwsBefore > 0.8*dwsAfter {
		t.Errorf("DWS not elastic: before=%.0f after=%.0f", dwsBefore, dwsAfter)
	}
	// DWS alone beats EP alone (EP's reserved partition wastes the idle half).
	if dwsBefore > 0.8*epBefore {
		t.Errorf("DWS alone (%.0f) not clearly faster than EP alone (%.0f)", dwsBefore, epBefore)
	}
	// EP is static: pre-arrival ≈ post-arrival.
	if epBefore < 0.7*epAfter || epBefore > 1.3*epAfter {
		t.Errorf("EP unexpectedly elastic: before=%.0f after=%.0f", epBefore, epAfter)
	}
}
