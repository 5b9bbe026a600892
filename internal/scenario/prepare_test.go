package scenario

import (
	"reflect"
	"sync"
	"testing"

	"dws/internal/sim"
)

var fivePolicies = []sim.Policy{sim.DWS, sim.ABP, sim.EP, sim.DWSNC, sim.GO}

func stormOpts(pol sim.Policy) SimOptions {
	cfg := sim.DefaultConfig()
	cfg.Policy = pol
	return SimOptions{Config: cfg, Admission: &sim.AdmissionOpts{GlobalCap: 24, EarlyReject: true}}
}

// TestPrepareAndReplayAllocs bounds what a replay's set-up allocates, the
// part of a sweep the zero-allocation event loop does not cover: building
// the overload-storm trace's graphs costs allocations per stage, not two
// per leaf, and a replay neither walks an accepted graph again nor
// allocates per arrival. Bounds are 1.25 × the measured values (2,229 and
// 3,235; with one-allocation-per-node builders, and a closure and a
// record per arrival, they were 491,062 and 3,698).
func TestPrepareAndReplayAllocs(t *testing.T) {
	tr, err := CompileByName("overload-storm")
	if err != nil {
		t.Fatal(err)
	}
	var p *Prepared
	prepare := testing.AllocsPerRun(3, func() {
		if p, err = Prepare(tr); err != nil {
			t.Fatal(err)
		}
	})
	replay := testing.AllocsPerRun(3, func() {
		if _, err := p.Sim(stormOpts(sim.DWS)); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Prepare %.0f allocs, one DWS replay %.0f allocs", prepare, replay)
	if prepare > 2_790 {
		t.Errorf("Prepare(overload-storm) allocates %.0f times, want ≤ 2,790", prepare)
	}
	if replay > 4_040 {
		t.Errorf("one replay allocates %.0f times, want ≤ 4,040", replay)
	}
}

// TestPreparedReplaysConcurrently replays one Prepared under all five
// policies at once, as the suites do — first on a trace no replay has
// validated yet, so the goroutines race to accept its graphs, then again
// once every graph carries its verdict — and requires each result to
// equal the one a sequential replay of a separately prepared copy gives.
// Run under -race it checks that the verdict kept on task.Graph is
// published safely.
func TestPreparedReplaysConcurrently(t *testing.T) {
	tr, err := CompileByName("overload-storm")
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Prepare(tr)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]*Result, len(fivePolicies))
	for i, pol := range fivePolicies {
		if want[i], err = ref.Sim(stormOpts(pol)); err != nil {
			t.Fatal(err)
		}
	}
	p, err := Prepare(tr)
	if err != nil {
		t.Fatal(err)
	}
	for _, round := range []string{"unvalidated", "validated"} {
		got := make([]*Result, len(fivePolicies))
		var wg sync.WaitGroup
		for i, pol := range fivePolicies {
			wg.Add(1)
			go func() {
				defer wg.Done()
				r, err := p.Sim(stormOpts(pol))
				if err != nil {
					t.Errorf("%s, %v: %v", round, pol, err)
				}
				got[i] = r
			}()
		}
		wg.Wait()
		for i, pol := range fivePolicies {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("%s trace, %v: concurrent replay differs from the sequential one:\n got %v\nwant %v",
					round, pol, got[i], want[i])
			}
		}
	}
}
