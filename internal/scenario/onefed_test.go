package scenario_test

import (
	"testing"

	"dws/internal/admit"
	"dws/internal/bench"
	"dws/internal/scenario"
	"dws/internal/sim"
)

// TestOneShardFedSimIsSim: a one-shard federation without spill is the
// open-loop replay it is built on. For every catalog trace the federation
// accepts, under every policy the scenario suite compares, each job ends
// with the status, arrival and completion time Sim gives it. The shards
// are the federation suite's 4-core machines behind a front door tight
// enough to refuse, shed and early-reject.
func TestOneShardFedSimIsSim(t *testing.T) {
	traces, refused := 0, map[sim.JobStatus]int{}
	for _, name := range scenario.CatalogNames() {
		tr, err := scenario.CompileByName(name)
		if err != nil {
			t.Fatal(err)
		}
		churn := false
		for _, e := range tr.Events {
			churn = churn || e.Op == scenario.OpLeave || e.Op == scenario.OpJoin && e.AtUS > 0
		}
		p, err := scenario.Prepare(tr)
		if err != nil {
			t.Fatal(err)
		}
		adm := &sim.AdmissionOpts{GlobalCap: len(tr.Tenants()) * 4, EarlyReject: true}
		for _, pol := range bench.ScenarioPolicies {
			cfg := sim.DefaultConfig()
			cfg.Policy = pol
			cfg.Cores, cfg.SocketSize = bench.FedCores, bench.FedCores
			fed, err := p.FedSim(scenario.FedSimOptions{Config: cfg, Shards: 1, Spill: admit.SpillNone, Admission: adm})
			if churn {
				if err == nil {
					t.Fatalf("%s: the federation replayed a churn trace", name)
				}
				break
			}
			if err != nil {
				t.Fatalf("%s/%v: %v", name, pol, err)
			}
			solo, err := p.SimJobs(scenario.SimOptions{Config: cfg, Admission: adm})
			if err != nil {
				t.Fatalf("%s/%v: %v", name, pol, err)
			}
			if len(solo) != len(fed.Fed.Outcomes) {
				t.Fatalf("%s/%v: Sim resolved %d jobs, FedSim %d", name, pol, len(solo), len(fed.Fed.Outcomes))
			}
			byTenant := map[int][]sim.JobOutcome{}
			for _, j := range solo {
				byTenant[j.Prog] = append(byTenant[j.Prog], j)
			}
			for _, o := range fed.Fed.Outcomes {
				if o.Status != sim.JobOK && o.Status != sim.JobLate {
					refused[o.Status]++
				}
				j := byTenant[o.Tenant][0]
				byTenant[o.Tenant] = byTenant[o.Tenant][1:]
				if o.Status != j.Status || o.AtUS != j.AtUS || o.DoneUS != j.DoneUS {
					t.Errorf("%s/%v: job %d is %v at %d done %d federated, %v at %d done %d alone",
						name, pol, o.Index, o.Status, o.AtUS, o.DoneUS, j.Status, j.AtUS, j.DoneUS)
				}
			}
		}
		if !churn {
			traces++
		}
	}
	t.Logf("%d traces × %d policies; jobs that never ran: %v", traces, len(bench.ScenarioPolicies), refused)
	if traces == 0 || refused[sim.JobRejected] == 0 || refused[sim.JobShed] == 0 || refused[sim.JobEarlyReject] == 0 {
		t.Fatalf("%d traces, refusals %v: the comparison must cover every way a job is refused", traces, refused)
	}
}
