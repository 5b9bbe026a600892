package scenario

import (
	"reflect"
	"testing"

	"dws/internal/admit"
	"dws/internal/sim"
)

func fedSimCfg() sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Cores = 4
	cfg.SocketSize = 4
	cfg.Seed = 3
	return cfg
}

// TestRunFedSimDeterministic: the federated replay of a catalog trace is
// bit-for-bit reproducible, including the spill ledger.
func TestRunFedSimDeterministic(t *testing.T) {
	spec, err := SpecByName("overload-storm")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	run := func() *FedReplay {
		fr, err := RunFedSim(tr, FedSimOptions{
			Config:   fedSimCfg(),
			Shards:   3,
			Spill:    sim.SpillNext,
			QueueCap: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		return fr
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a.Result, b.Result) {
		t.Fatal("federated replays of the same trace differ")
	}
	if !reflect.DeepEqual(a.Fed.Spills, b.Fed.Spills) {
		t.Fatal("spill ledgers differ")
	}
	if a.Result.Substrate != "fedsim" {
		t.Fatalf("substrate %q", a.Result.Substrate)
	}
	if a.Result.Policy != "DWS/next-preferred" {
		t.Fatalf("policy label %q", a.Result.Policy)
	}
}

// TestRunFedSimPlacementMatchesRouterRing: every tenant's preference walk
// starts at its home and covers each shard exactly once — and one shard
// (K=1) degenerates to everyone homed together with no walk to spill to.
func TestRunFedSimPlacementMatchesRouterRing(t *testing.T) {
	spec, err := SpecByName("overload-storm")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	fr, err := RunFedSim(tr, FedSimOptions{Config: fedSimCfg(), Shards: 3, Spill: admit.SpillNone, QueueCap: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(fr.Pref) != len(tr.Tenants()) {
		t.Fatalf("%d preference walks for %d tenants", len(fr.Pref), len(tr.Tenants()))
	}
	homes := map[int]int{}
	for tenant, walk := range fr.Pref {
		if len(walk) != 3 {
			t.Fatalf("tenant %s walk %v does not cover 3 shards", tenant, walk)
		}
		seen := map[int]bool{}
		for _, s := range walk {
			if seen[s] {
				t.Fatalf("tenant %s walk %v repeats a shard", tenant, walk)
			}
			seen[s] = true
		}
		homes[walk[0]]++
	}
	if len(homes) < 2 {
		t.Fatalf("all tenants homed on one shard: %v", homes)
	}
}

// TestRunFedSimSpillImprovesStorm: on the overload-storm trace,
// next-preferred spilling across 3 shards must complete at least as many
// jobs as refusing to spill, and must actually spill.
func TestRunFedSimSpillImprovesStorm(t *testing.T) {
	spec, err := SpecByName("overload-storm")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	run := func(p admit.SpillPolicy) *FedReplay {
		fr, err := RunFedSim(tr, FedSimOptions{
			Config:    fedSimCfg(),
			Shards:    3,
			Spill:     p,
			QueueCap:  2,
			Admission: &sim.AdmissionOpts{GlobalCap: 6},
		})
		if err != nil {
			t.Fatal(err)
		}
		return fr
	}
	none := run(admit.SpillNone)
	next := run(sim.SpillNext)
	if len(next.Fed.Spills) == 0 {
		t.Fatal("storm replay spilled nothing")
	}
	if next.Result.OK < none.Result.OK {
		t.Fatalf("next-preferred ok=%d < no-spill ok=%d", next.Result.OK, none.Result.OK)
	}
}

// TestRunFedSimRejectsChurn: traces with mid-replay joins or leaves are
// refused with a clear error.
func TestRunFedSimRejectsChurn(t *testing.T) {
	base := []Event{
		{AtUS: 0, Tenant: "a", Op: OpJob, Kernel: "p-1", Scale: 0.02},
	}
	for _, churn := range []Event{
		{AtUS: 1000, Tenant: "b", Op: OpJoin},
		{AtUS: 1000, Tenant: "a", Op: OpLeave},
	} {
		tr := &Trace{Version: Version, Name: "churny", Events: append(base, churn)}
		if _, err := RunFedSim(tr, FedSimOptions{Config: fedSimCfg(), Shards: 2}); err == nil {
			t.Errorf("churn event %+v accepted", churn)
		}
	}
	// A weight-declaring join at time zero is fine (it is not churn).
	tr := &Trace{Version: Version, Name: "weighted", Events: []Event{
		{AtUS: 0, Tenant: "a", Op: OpJoin, Weight: 2},
		{AtUS: 0, Tenant: "a", Op: OpJob, Kernel: "p-1", Scale: 0.02},
	}}
	if _, err := RunFedSim(tr, FedSimOptions{Config: fedSimCfg(), Shards: 2}); err != nil {
		t.Fatalf("time-zero weight join refused: %v", err)
	}
}
