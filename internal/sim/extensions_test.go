package sim

import (
	"reflect"
	"strings"
	"testing"

	"dws/internal/task"
)

// TestOccupancySampling: samples are recorded and render as a timeline.
func TestOccupancySampling(t *testing.T) {
	m := mustMachine(t, debugConfig(DWS), []*task.Graph{wideGraph(), narrowGraph()})
	res, err := m.Run(RunOpts{TargetRuns: 2, HorizonUS: 120_000_000_000, SampleUS: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) < 10 {
		t.Fatalf("only %d samples", len(res.Samples))
	}
	// Both programs must appear somewhere in the timeline.
	seen := map[int32]bool{}
	for _, s := range res.Samples {
		for _, id := range s.Running {
			seen[id] = true
		}
	}
	if !seen[1] || !seen[2] {
		t.Fatalf("timeline missing a program: %v", seen)
	}
	art := res.TimelineASCII(60)
	if !strings.Contains(art, "c0") || !strings.Contains(art, "1") {
		t.Fatalf("timeline render:\n%s", art)
	}
	lines := strings.Count(art, "\n")
	if lines != 16 {
		t.Fatalf("timeline has %d rows, want 16", lines)
	}
	if res.TimelineASCII(0) == "" {
		t.Fatal("unbounded render empty")
	}
}

// TestSamplingLeavesRunAlone: under every policy a sampled run is the
// unsampled run plus its samples — same events, same simulated time,
// same per-program statistics.
func TestSamplingLeavesRunAlone(t *testing.T) {
	for _, pol := range []Policy{ABP, EP, DWS, DWSNC, GO} {
		run := func(sampleUS int64) *Results {
			m := mustMachine(t, debugConfig(pol), []*task.Graph{wideGraph(), narrowGraph()})
			res, err := m.Run(RunOpts{TargetRuns: 2, HorizonUS: 120_000_000_000, SampleUS: sampleUS})
			if err != nil {
				t.Fatalf("%v: %v", pol, err)
			}
			return res
		}
		plain, sampled := run(0), run(5000)
		if len(sampled.Samples) == 0 {
			t.Fatalf("%v: no samples", pol)
		}
		sampled.Samples = nil
		if !reflect.DeepEqual(plain, sampled) {
			t.Errorf("%v: sampling changed the run: events %d → %d, end %dµs → %dµs",
				pol, plain.Events, sampled.Events, plain.EndTimeUS, sampled.EndTimeUS)
		}
	}
}

// TestTimelineEmptyWithoutSampling: no sampling, no timeline.
func TestTimelineEmptyWithoutSampling(t *testing.T) {
	m := mustMachine(t, debugConfig(EP), []*task.Graph{wideGraph()})
	res, err := m.Run(RunOpts{TargetRuns: 1, HorizonUS: 60_000_000_000})
	if err != nil {
		t.Fatal(err)
	}
	if res.TimelineASCII(10) != "" {
		t.Fatal("timeline rendered without samples")
	}
}

// TestStrongYieldPath: the idealised ABP yield rotates the run queue on a
// failed steal with visible work (covers yieldRotate).
func TestStrongYieldPath(t *testing.T) {
	cfg := debugConfig(ABP)
	cfg.StrongYield = true
	m := mustMachine(t, cfg, []*task.Graph{wideGraph(), narrowGraph()})
	res, err := m.Run(RunOpts{TargetRuns: 2, HorizonUS: 240_000_000_000})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Programs {
		if p.Runs() < 2 {
			t.Fatalf("%s: %d runs", p.Name, p.Runs())
		}
	}
}
