package schedcheck

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"dws/internal/coretable"
	"dws/internal/rt"
	"dws/internal/trace"
)

// artifactDir returns where a failing conformance run dumps its JSONL
// repro artifact: SCHEDCHECK_ARTIFACT_DIR if set (the CI job uploads it),
// else the test's temp dir.
func artifactDir(t *testing.T) string {
	if d := os.Getenv("SCHEDCHECK_ARTIFACT_DIR"); d != "" {
		if err := os.MkdirAll(d, 0o755); err != nil {
			t.Fatalf("artifact dir: %v", err)
		}
		return d
	}
	return t.TempDir()
}

// conformanceScenarios returns the default scenario set, re-shaped for a
// multi-socket machine when SCHEDCHECK_SOCKET_SIZE is set (the CI
// locality job runs the matrix with sockets of 4 and 8 besides flat).
// Values ≤ 0 or ≥ the scenario's core count degrade to flat, exactly as
// topo.Uniform does.
func conformanceScenarios(t *testing.T) []Scenario {
	scs := DefaultScenarios()
	if s := os.Getenv("SCHEDCHECK_SOCKET_SIZE"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil {
			t.Fatalf("bad SCHEDCHECK_SOCKET_SIZE %q: %v", s, err)
		}
		for i := range scs {
			scs[i].SocketSize = v
		}
	}
	return scs
}

func checkReport(t *testing.T, rep *Report, label string) {
	t.Helper()
	if rep.Pass() {
		return
	}
	path := filepath.Join(artifactDir(t), "conformance-"+label+".jsonl")
	if err := rep.DumpArtifact(path); err != nil {
		t.Logf("artifact dump failed: %v", err)
	} else {
		t.Logf("divergence artifact written to %s", path)
	}
	for _, d := range rep.Divergences() {
		t.Errorf("%s/%s [%s]: %s", d.Scenario, d.Policy, d.Check, d.Detail)
	}
}

// TestConformanceDefaultScenarios is the sim↔live oracle acceptance test:
// every default workload shape, replayed through the simulator and the
// virtual-clock live runtime under all four policies, must agree on the
// behavioural contract (completion, capability matrix, makespan shares
// where the policy pins them, ranking where the sim is decisive, the DWS
// exchange direction) with zero live invariant violations.
func TestConformanceDefaultScenarios(t *testing.T) {
	seed := int64(1)
	if s := os.Getenv("SCHEDCHECK_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("bad SCHEDCHECK_SEED %q: %v", s, err)
		}
		seed = v
	}
	rep, err := RunConformance(conformanceScenarios(t), ConformancePolicies, seed)
	if err != nil {
		t.Fatalf("RunConformance: %v", err)
	}
	if got, want := len(rep.Reports), len(DefaultScenarios())*len(ConformancePolicies); got != want {
		t.Fatalf("ran %d scenario×policy cells, want %d", got, want)
	}
	checkReport(t, rep, "seed"+strconv.FormatInt(seed, 10))
}

// TestConformanceSeedSweep replays the oracle across many seeds; the CI
// schedcheck job sets SCHEDCHECK_SEEDS="1 2 3 ..." to run 10 of them.
// Without the env var it covers a token two extra seeds so the sweep path
// itself stays tested.
func TestConformanceSeedSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("seed sweep skipped in -short mode")
	}
	seedsEnv := os.Getenv("SCHEDCHECK_SEEDS")
	if seedsEnv == "" {
		seedsEnv = "2 3"
	}
	for _, f := range strings.Fields(seedsEnv) {
		seed, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			t.Fatalf("bad seed %q in SCHEDCHECK_SEEDS: %v", f, err)
		}
		t.Run("seed"+f, func(t *testing.T) {
			rep, err := RunConformance(conformanceScenarios(t), ConformancePolicies, seed)
			if err != nil {
				t.Fatalf("RunConformance: %v", err)
			}
			checkReport(t, rep, "seed"+f)
		})
	}
}

// TestSimCheckerCatchesPlantedFaults: the Checker watching the sim side of
// a conformance cell is not vacuous. The untouched DWS stream of the
// exchange scenario is clean; the same stream with one reclaim moved off
// the reclaimer's home block, or with one wake dropped, is caught by the
// invariant that owns that rule.
func TestSimCheckerCatchesPlantedFaults(t *testing.T) {
	sc := DefaultScenarios()[1] // tail-vs-wide
	run := func(plant func(ev *trace.Event) (keep bool)) []Violation {
		t.Helper()
		c := newChecker(sc, rt.DWS)
		if _, err := simulate(sc, rt.DWS, 1, func(ev trace.Event) {
			if plant(&ev) {
				c.Observe(ev)
			}
		}); err != nil {
			t.Fatal(err)
		}
		return c.Violations()
	}
	named := func(vs []Violation, inv string) bool {
		for _, v := range vs {
			if v.Invariant == inv {
				return true
			}
		}
		return false
	}

	seen := map[trace.Kind]int{}
	if vs := run(func(ev *trace.Event) bool { seen[ev.Kind]++; return true }); len(vs) > 0 {
		t.Fatalf("untouched sim stream: %d violations, first %s", len(vs), vs[0])
	}
	if seen[trace.Reclaim] == 0 || seen[trace.Wake] == 0 {
		t.Fatalf("scenario emits no reclaim or no wake to plant on: %v", seen)
	}

	moved := false
	vs := run(func(ev *trace.Event) bool {
		if ev.Kind == trace.Reclaim && !moved {
			moved = true
			// The other program's first static home core.
			other := 2 - int(ev.Prog)
			ev.Core = coretable.HomeCores(sc.Cores, len(sc.Graphs), other)[0]
		}
		return true
	})
	if !named(vs, "reclaim-home-only") {
		t.Errorf("reclaim moved off its home block: violations %v, want reclaim-home-only", vs)
	}

	dropped := false
	vs = run(func(ev *trace.Event) bool {
		if ev.Kind == trace.Wake && !dropped {
			dropped = true
			return false
		}
		return true
	})
	if !named(vs, "sleep-wake-alternation") {
		t.Errorf("one wake dropped: violations %v, want sleep-wake-alternation", vs)
	}
}
