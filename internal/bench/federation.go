// Federation comparison suite — the numbers behind BENCH_federation.json
// and EXPERIMENTS.md's "Federation" section. The overload-storm trace is
// replayed across K simulated shards (scenario.RunFedSim: the router
// ring places tenants, refusals follow each tenant's preference walk)
// under every spill policy. Virtual-clock deterministic like the
// scenario suite, so the committed baseline regenerates identically on
// any host and the gate tolerance absorbs intentional evolution, not
// runner noise.
package bench

import (
	"fmt"
	"sort"
	"strings"

	"dws/internal/admit"
	"dws/internal/scenario"
	"dws/internal/sim"
)

// FedPolicies is the spill-policy sweep, worst-expected first: the gate's
// ranking rule asserts ok-rates are non-decreasing in this order.
var FedPolicies = []admit.SpillPolicy{admit.SpillNone, admit.SpillRandom, admit.SpillNext}

// FedShards is the federation size the suite models, matching the CI
// live battery (dwsrouter over 3 dwsd shards); FedCores is the per-shard
// machine, sized so the storm actually overloads its home shard — on the
// full 16-core default one shard swallows the whole trace and no spill
// policy has anything to do.
const (
	FedShards = 3
	FedCores  = 4
)

// FedScenarios names the catalog traces the suite federates. The storm
// is the headline (spill-over exists to absorb overload); the steady
// trace pins the no-regression side — spilling must not hurt a
// federation that never needs it.
var FedScenarios = []string{"overload-storm", "steady-uniform"}

// FederationFile is the committed federation baseline
// (BENCH_federation.json).
type FederationFile struct {
	// Cores is the per-shard machine size, Shards the federation width.
	Cores  int `json:"cores"`
	Shards int `json:"shards"`
	// Policies lists the spill sweep, in run order.
	Policies []string `json:"policies"`
	// Results holds one entry per (scenario, spill policy), scenarios in
	// FedScenarios order, policies in sweep order. Each Result's Policy
	// label is "<scheduler>/<spill>" (e.g. "DWS/next-preferred").
	Results []*scenario.Result `json:"results"`
	// Spills[i] is the total redirect count of Results[i] — the evidence
	// that a spill policy actually spilled, kept so the baseline is
	// self-explaining.
	Spills []int `json:"spills"`
}

// RunFederationSuite replays every federated scenario under every spill
// policy and returns the baseline file content.
func RunFederationSuite(logf func(format string, args ...any)) (*FederationFile, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	out := &FederationFile{Cores: FedCores, Shards: FedShards}
	for _, sp := range FedPolicies {
		out.Policies = append(out.Policies, sp.String())
	}
	for _, name := range FedScenarios {
		tr, err := scenario.CompileByName(name)
		if err != nil {
			return nil, err
		}
		replay, err := scenario.Prepare(tr)
		if err != nil {
			return nil, err
		}
		// Same front-door shape as the live shards (WFQ, global cap, early
		// rejection) but with a per-tenant queue cap of 2: tight enough
		// that the storm refuses work at its home shard, which gives the
		// spill policies something to absorb. At the dwsd default of 8 the
		// home shard admits everything and finishes late instead, and the
		// comparison degenerates.
		adm := &sim.AdmissionOpts{GlobalCap: len(tr.Tenants()) * 4, EarlyReject: true}
		replays := make([]*scenario.FedReplay, len(FedPolicies))
		err = fanOut(len(replays), func(i int) (err error) {
			c := sim.DefaultConfig()
			c.Policy = sim.DWS
			c.Cores = FedCores
			c.SocketSize = FedCores
			replays[i], err = replay.FedSim(scenario.FedSimOptions{
				Config:    c,
				Shards:    FedShards,
				Spill:     FedPolicies[i],
				QueueCap:  2,
				Admission: adm,
			})
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("bench: %w", err)
		}
		for _, fr := range replays {
			spills := 0
			for _, e := range fr.Fed.Spills {
				spills += int(e.Count)
			}
			logf("%s  spills=%d", fr.Result, spills)
			out.Results = append(out.Results, fr.Result)
			out.Spills = append(out.Spills, spills)
		}
	}
	return out, nil
}

// LoadFederationFile reads a federation baseline from disk.
func LoadFederationFile(path string) (*FederationFile, error) {
	return loadJSON[FederationFile](path)
}

// WriteFederationFile writes a baseline with the canonical indentation.
func WriteFederationFile(path string, f *FederationFile) error { return writeJSON(path, f) }

// fedRankSlack is the hysteresis of the ranking rule: a policy only
// counts as falling behind its predecessor when its ok-rate drops more
// than two percentage points below it. Random and next-preferred land
// within a point of each other on the storm (they redirect the same
// refusals, just to different siblings), so a tighter slack would gate
// on a coin flip.
const fedRankSlack = 0.02

// CompareFederation gates cur against base. A violation is reported
// when, for any scenario:
//
//   - a (scenario, policy) pair present in base is missing from cur;
//   - any policy's ok-rate drops more than two percentage points below
//     its baseline (the spill machinery must not quietly start refusing
//     work it used to complete); or
//   - the spill-policy ranking breaks: ok-rates are expected
//     non-decreasing along FedPolicies order (none ≤ random ≤
//     next-preferred, within fedRankSlack) — the ordering the live
//     battery confirms, so losing it means sim and production would
//     disagree about whether spilling helps.
//
// Scenarios or policies present only in cur pass (new coverage needs no
// baseline yet).
func CompareFederation(base, cur *FederationFile) []string {
	type key struct{ scenario, policy string }
	curBy := map[key]*scenario.Result{}
	for _, r := range cur.Results {
		curBy[key{r.Scenario, r.Policy}] = r
	}
	var scenarios []string
	seen := map[string]bool{}
	baseBy := map[key]*scenario.Result{}
	for _, r := range base.Results {
		baseBy[key{r.Scenario, r.Policy}] = r
		if !seen[r.Scenario] {
			seen[r.Scenario] = true
			scenarios = append(scenarios, r.Scenario)
		}
	}

	var bad []string
	for _, r := range base.Results {
		c := curBy[key{r.Scenario, r.Policy}]
		if c == nil {
			bad = append(bad, fmt.Sprintf("%s/%s: missing from current run", r.Scenario, r.Policy))
			continue
		}
		if c.OKRate() < r.OKRate()-0.02 {
			bad = append(bad, fmt.Sprintf("%s/%s: ok-rate %.1f%% → %.1f%%",
				r.Scenario, r.Policy, 100*r.OKRate(), 100*c.OKRate()))
		}
	}
	// Ranking rule, judged on the current run: each policy label pairs
	// the scheduler with the spill strategy, so rebuild the labels from
	// cur's policy sweep order.
	for _, sc := range scenarios {
		var prev *scenario.Result
		for _, pol := range cur.Policies {
			var r *scenario.Result
			for _, cand := range cur.Results {
				if cand.Scenario == sc && strings.HasSuffix(cand.Policy, "/"+pol) {
					r = cand
					break
				}
			}
			if r == nil {
				continue
			}
			if prev != nil && r.OKRate() < prev.OKRate()-fedRankSlack {
				bad = append(bad, fmt.Sprintf("%s: ranking broke: %s ok-rate %.1f%% < %s %.1f%%",
					sc, r.Policy, 100*r.OKRate(), prev.Policy, 100*prev.OKRate()))
			}
			prev = r
		}
	}
	sort.Strings(bad)
	return bad
}

// FormatFederation renders the suite as one block per scenario, one row
// per spill policy in sweep order, with the redirect volume beside the
// outcome counters.
func FormatFederation(f *FederationFile) string {
	var b strings.Builder
	last := ""
	for i, r := range f.Results {
		if r.Scenario != last {
			last = r.Scenario
			fmt.Fprintf(&b, "%s\n", r.Scenario)
			fmt.Fprintf(&b, "  %-20s %6s %6s %5s %8s %9s %5s %8s %7s %9s\n",
				"policy", "sent", "ok", "late", "expired", "rejected", "shed", "earlyrej", "spills", "p95ms")
		}
		spills := 0
		if i < len(f.Spills) {
			spills = f.Spills[i]
		}
		fmt.Fprintf(&b, "  %-20s %6d %6d %5d %8d %9d %5d %8d %7d %9.2f\n",
			r.Policy, r.Sent, r.OK, r.Late, r.Expired, r.Rejected, r.Shed,
			r.EarlyRejected, spills, r.Latency.P95)
	}
	fmt.Fprintf(&b, "(%d shards × %d cores, spill sweep %s)\n",
		f.Shards, f.Cores, strings.Join(f.Policies, " → "))
	return b.String()
}
