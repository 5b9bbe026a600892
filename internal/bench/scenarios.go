// Scenario comparison suite — the multi-policy benchmark behind
// BENCH_scenarios.json. Every catalog scenario is replayed on the
// simulator's virtual clock under every policy, so the committed numbers
// are bit-deterministic and regenerate identically on any host; the gate
// tolerance exists to absorb intentional scheduler evolution, not runner
// noise.
package bench

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"

	"dws/internal/scenario"
	"dws/internal/sim"
)

// ScenarioPolicies is the comparison set: the paper's baselines, DWS, its
// no-table ablation, and the plain Go-scheduler baseline.
var ScenarioPolicies = []sim.Policy{sim.DWS, sim.ABP, sim.EP, sim.DWSNC, sim.GO}

// GatedPolicy is the policy the gate protects: regressions and lost wins
// are judged from its entries.
const GatedPolicy = "DWS"

// ScenarioFile is the committed scenario baseline (BENCH_scenarios.json).
type ScenarioFile struct {
	// Cores is the simulated machine size the suite ran on.
	Cores int `json:"cores"`
	// Policies lists the policy sweep, in run order.
	Policies []string `json:"policies"`
	// Results holds one entry per (scenario, policy), scenarios in catalog
	// order, policies in sweep order.
	Results []*scenario.Result `json:"results"`
}

// RunScenarioSuite replays every catalog scenario under every policy in
// ScenarioPolicies and returns the baseline file content.
func RunScenarioSuite(logf func(format string, args ...any)) (*ScenarioFile, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	cfg := sim.DefaultConfig()
	out := &ScenarioFile{Cores: cfg.Cores}
	for _, pol := range ScenarioPolicies {
		out.Policies = append(out.Policies, pol.String())
	}
	for _, spec := range scenario.Catalog() {
		tr, err := spec.Compile()
		if err != nil {
			return nil, err
		}
		replay, err := scenario.Prepare(tr)
		if err != nil {
			return nil, err
		}
		// The WFQ front door runs for every policy with the dwsd default
		// global cap (tenants × queueCap/2 = tenants × 8) and early
		// rejection on; weights fill in from the trace, so gold-qos
		// exercises weighted shed and overload-storm exercises the cap.
		adm := &sim.AdmissionOpts{GlobalCap: len(tr.Tenants()) * 8, EarlyReject: true}
		results := make([]*scenario.Result, len(ScenarioPolicies))
		err = fanOut(len(results), func(i int) (err error) {
			c := sim.DefaultConfig()
			c.Policy = ScenarioPolicies[i]
			results[i], err = replay.Sim(scenario.SimOptions{Config: c, Admission: adm})
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("bench: %s: %w", spec.Name, err)
		}
		for _, r := range results {
			logf("%s", r)
			out.Results = append(out.Results, r)
		}
	}
	return out, nil
}

// fanOut calls fn(0) … fn(n-1), each once, up to GOMAXPROCS at a time, and
// returns their errors joined in index order. The suites replay one
// prepared scenario under every policy with it: each replay is its own
// single-threaded machine, the prepared trace is read-only, and each
// stores its result under its own index, so output stays in sweep order.
func fanOut(n int, fn func(i int) error) error {
	errs := make([]error, n)
	running := make(chan struct{}, runtime.GOMAXPROCS(0)) // a slot per replay in flight
	var wg sync.WaitGroup
	for i := range errs {
		running <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn(i)
			<-running
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// LoadScenarioFile reads a scenario baseline from disk.
func LoadScenarioFile(path string) (*ScenarioFile, error) {
	return loadJSON[ScenarioFile](path)
}

// WriteScenarioFile writes a baseline with the canonical indentation.
func WriteScenarioFile(path string, f *ScenarioFile) error { return writeJSON(path, f) }

// decisiveWin is the hysteresis margin of the lost-win rule: the baseline
// only records a "held win" when DWS's p95 beats the rival's by ≥5%, so a
// coin-flip-close pair can't flap the gate.
const decisiveWin = 0.95

// CompareScenarios gates cur against base from the gated policy's
// viewpoint. A violation is reported when, for any scenario:
//
//   - a (scenario, policy) pair present in base is missing from cur;
//   - the gated policy's p95 latency or makespan exceeds the baseline by
//     more than tol (relative);
//   - the gated policy's ok-rate drops more than two percentage points; or
//   - the gated policy decisively beat another policy's p95 in the
//     baseline (by ≥5%) but no longer beats it at all — a lost win.
//
// Scenarios or policies present only in cur pass (new coverage needs no
// baseline yet).
func CompareScenarios(base, cur *ScenarioFile, tol float64) []string {
	type key struct{ scenario, policy string }
	curBy := map[key]*scenario.Result{}
	for _, r := range cur.Results {
		curBy[key{r.Scenario, r.Policy}] = r
	}
	baseBy := map[key]*scenario.Result{}
	var scenarios []string
	seen := map[string]bool{}
	for _, r := range base.Results {
		baseBy[key{r.Scenario, r.Policy}] = r
		if !seen[r.Scenario] {
			seen[r.Scenario] = true
			scenarios = append(scenarios, r.Scenario)
		}
	}

	var bad []string
	for _, r := range base.Results {
		if curBy[key{r.Scenario, r.Policy}] == nil {
			bad = append(bad, fmt.Sprintf("%s/%s: missing from current run", r.Scenario, r.Policy))
		}
	}
	for _, sc := range scenarios {
		bd := baseBy[key{sc, GatedPolicy}]
		cd := curBy[key{sc, GatedPolicy}]
		if bd == nil || cd == nil {
			continue
		}
		if bd.Latency.P95 > 0 && cd.Latency.P95 > bd.Latency.P95*(1+tol) {
			bad = append(bad, fmt.Sprintf("%s: %s p95 %.2fms → %.2fms (%+.1f%%, tol %+.0f%%)",
				sc, GatedPolicy, bd.Latency.P95, cd.Latency.P95,
				100*(cd.Latency.P95/bd.Latency.P95-1), 100*tol))
		}
		if bd.MakespanMS > 0 && cd.MakespanMS > bd.MakespanMS*(1+tol) {
			bad = append(bad, fmt.Sprintf("%s: %s makespan %.0fms → %.0fms (%+.1f%%, tol %+.0f%%)",
				sc, GatedPolicy, bd.MakespanMS, cd.MakespanMS,
				100*(cd.MakespanMS/bd.MakespanMS-1), 100*tol))
		}
		if cd.OKRate() < bd.OKRate()-0.02 {
			bad = append(bad, fmt.Sprintf("%s: %s ok-rate %.1f%% → %.1f%%",
				sc, GatedPolicy, 100*bd.OKRate(), 100*cd.OKRate()))
		}
		// Per-tenant ok-rate gate: the weighted scenarios exist to prove
		// the front door protects high-weight tenants under overload, so
		// each tenant's ok-rate is held individually — a gold tenant
		// silently traded for aggregate throughput is exactly the
		// regression this must catch.
		baseTenant := map[string]scenario.TenantResult{}
		for _, bt := range bd.Tenants {
			baseTenant[bt.Tenant] = bt
		}
		for _, ct := range cd.Tenants {
			bt, ok := baseTenant[ct.Tenant]
			if !ok || bt.Sent == 0 || ct.Sent == 0 {
				continue
			}
			bRate := float64(bt.OK) / float64(bt.Sent)
			cRate := float64(ct.OK) / float64(ct.Sent)
			if cRate < bRate-0.02 {
				bad = append(bad, fmt.Sprintf("%s: %s tenant %s ok-rate %.1f%% → %.1f%%",
					sc, GatedPolicy, ct.Tenant, 100*bRate, 100*cRate))
			}
		}
		for _, pol := range base.Policies {
			if pol == GatedPolicy {
				continue
			}
			bo := baseBy[key{sc, pol}]
			co := curBy[key{sc, pol}]
			if bo == nil || co == nil || bd.Latency.P95 <= 0 || bo.Latency.P95 <= 0 {
				continue
			}
			if bd.Latency.P95 <= decisiveWin*bo.Latency.P95 && cd.Latency.P95 > co.Latency.P95 {
				bad = append(bad, fmt.Sprintf("%s: lost win over %s (base p95 %.2f vs %.2f; now %.2f vs %.2f)",
					sc, pol, bd.Latency.P95, bo.Latency.P95, cd.Latency.P95, co.Latency.P95))
			}
		}
	}
	sort.Strings(bad)
	return bad
}

// FormatScenarios renders the suite as one block per scenario, one row per
// policy, best p95 first.
func FormatScenarios(f *ScenarioFile) string {
	byScenario := map[string][]*scenario.Result{}
	var order []string
	for _, r := range f.Results {
		if byScenario[r.Scenario] == nil {
			order = append(order, r.Scenario)
		}
		byScenario[r.Scenario] = append(byScenario[r.Scenario], r)
	}
	var b strings.Builder
	for _, sc := range order {
		fmt.Fprintf(&b, "%s\n", sc)
		fmt.Fprintf(&b, "  %-8s %6s %6s %5s %8s %9s %5s %8s %9s %9s %7s %10s\n",
			"policy", "sent", "ok", "late", "expired", "rejected", "shed", "earlyrej", "p50ms", "p95ms", "jain", "makespanms")
		for i, r := range scenario.RankByP95(byScenario[sc]) {
			mark := " "
			if i == 0 {
				mark = "*"
			}
			fmt.Fprintf(&b, "%s %-8s %6d %6d %5d %8d %9d %5d %8d %9.2f %9.2f %7.3f %10.0f\n",
				mark, r.Policy, r.Sent, r.OK, r.Late, r.Expired, r.Rejected, r.Shed,
				r.EarlyRejected, r.Latency.P50, r.Latency.P95, r.Fairness, r.MakespanMS)
		}
	}
	fmt.Fprintf(&b, "(best p95 starred; %d cores, %s/%s)\n", f.Cores, runtime.GOOS, runtime.GOARCH)
	return b.String()
}
