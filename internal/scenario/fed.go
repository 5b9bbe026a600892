package scenario

import (
	"fmt"

	"dws/internal/router"
	"dws/internal/sim"
)

// FedSimOptions configures a federated simulated replay: one catalog
// trace fanned across K simulated shards under a spill policy, the
// virtual-clock twin of dwsrouter over K dwsd instances.
type FedSimOptions struct {
	// Config is the per-shard machine; shard i runs it with Seed+i·101.
	Config sim.Config
	// Shards is K (≥1).
	Shards int
	// Spill is the redirect policy; SpillBudget caps hops (≤0 = 2).
	Spill       sim.SpillPolicy
	SpillBudget int
	// SpillLatencyUS[from][to] is the inter-shard redirect delay; nil = 0.
	SpillLatencyUS [][]int64
	// QueueCap bounds each tenant's per-shard admission queue (≤0 = 16).
	QueueCap int
	// HorizonUS aborts a runaway replay; ≤0 derives a bound from the trace.
	HorizonUS int64
	// Admission configures every shard's front door; nil Weights are filled
	// from the trace's declarations and nil is the sim's zero value, as in
	// RunSim.
	Admission *sim.AdmissionOpts
}

// FedReplay is the outcome of a federated simulated replay.
type FedReplay struct {
	// Result is the scenario summary; its Policy label is
	// "<policy>/<spill>" so multi-policy tables line up by spill strategy.
	Result *Result
	// Fed is the raw federation outcome: per-job shard/spill records and
	// the (from, to, reason) spill ledger.
	Fed *sim.FedResults
	// Pref[tenant] is the ring preference walk used for placement, home
	// first — the same walk a dwsrouter with shards named "s0".."sK-1"
	// computes, so sim placement and live placement agree by construction.
	Pref map[string][]int
}

// RunFedSim replays the trace through K simulated shards. Tenants are
// placed by the router's bounded-load ring (names "s0".."sK-1"), jobs
// follow each tenant's preference walk on refusal per the spill policy.
// Tenant-churn traces (mid-trace joins or leaves) are rejected: the
// federation hosts every tenant on every shard for the whole replay, so
// churn semantics (which shard forgets the tenant, when) are not modeled.
// Given identical trace and options the replay is bit-for-bit identical.
func RunFedSim(tr *Trace, opts FedSimOptions) (*FedReplay, error) {
	p, err := Prepare(tr)
	if err != nil {
		return nil, err
	}
	return p.FedSim(opts)
}

// FedSim is RunFedSim on an already prepared trace.
func (p *Prepared) FedSim(opts FedSimOptions) (*FedReplay, error) {
	if opts.Shards < 1 {
		return nil, fmt.Errorf("scenario: federation needs at least 1 shard")
	}
	if p.churn != nil {
		return nil, p.churn
	}
	if len(p.jobs) == 0 {
		return nil, fmt.Errorf("scenario: trace %q has no job events", p.name)
	}

	// Placement: the same ring a dwsrouter over shards "s0".."sK-1" builds.
	ring := router.NewRing(0, 0)
	shardIdx := map[string]int{}
	for s := 0; s < opts.Shards; s++ {
		name := fmt.Sprintf("s%d", s)
		ring.Add(name)
		shardIdx[name] = s
	}
	pref := make([][]int, len(p.tenants))
	prefByName := map[string][]int{}
	for i, name := range p.tenants {
		home := ring.Assign(name)
		walk := []int{shardIdx[home]}
		for _, s := range ring.Preference(name) {
			if s != home {
				walk = append(walk, shardIdx[s])
			}
		}
		pref[i] = walk
		prefByName[name] = walk
	}

	cfg, admission, horizon := p.machine(opts.Config, opts.Admission, opts.HorizonUS)
	fed, err := sim.RunFederation(sim.FedOpts{
		Cfg:            cfg,
		Shards:         opts.Shards,
		Programs:       p.anchors,
		Jobs:           p.jobs,
		Pref:           pref,
		Spill:          opts.Spill,
		SpillBudget:    opts.SpillBudget,
		SpillLatencyUS: opts.SpillLatencyUS,
		QueueCap:       opts.QueueCap,
		Admission:      admission,
		HorizonUS:      horizon,
	})
	if err != nil {
		return nil, fmt.Errorf("scenario: federated replay of %q (%d shards, %v): %w",
			p.name, opts.Shards, opts.Spill, err)
	}

	outcomes := make([]Outcome, len(fed.Outcomes))
	for i, o := range fed.Outcomes {
		outcomes[i] = p.outcome(o.Tenant, o.Status, o.AtUS, o.DoneUS)
	}
	label := fmt.Sprintf("%s/%s", cfg.Policy, opts.Spill)
	res := Summarize(p.name, label, "fedsim", outcomes, float64(fed.EndTimeUS)/1000)
	return &FedReplay{Result: res, Fed: fed, Pref: prefByName}, nil
}
