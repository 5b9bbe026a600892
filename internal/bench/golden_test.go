package bench

import (
	"fmt"
	"hash/fnv"
	"testing"

	"dws/internal/scenario"
	"dws/internal/sim"
	"dws/internal/task"
	"dws/internal/workload"
)

// The golden pins below hold the simulator's event-level behaviour still
// across refactors of its event core: the processed-event count (stale
// events included), the final virtual time and a hash of the canonical
// outcome log. The gated BENCH files only see summaries (percentiles,
// counts); these see every job and every event.

// stormOpenJobs turns the overload-storm trace into RunOpen's input, one
// graph per distinct (kernel, scale).
func stormOpenJobs(t *testing.T) (*scenario.Trace, [][]sim.Job, []*task.Graph) {
	t.Helper()
	tr, err := scenario.CompileByName("overload-storm")
	if err != nil {
		t.Fatal(err)
	}
	tenants := tr.Tenants()
	idx := map[string]int{}
	anchors := make([]*task.Graph, len(tenants))
	for i, name := range tenants {
		idx[name] = i
		anchors[i] = &task.Graph{Name: name, Root: task.Leaf(1)}
	}
	type key struct {
		kernel string
		scale  float64
	}
	graphs := map[key]*task.Graph{}
	jobs := make([][]sim.Job, len(tenants))
	for _, e := range tr.Events {
		if e.Op != scenario.OpJob {
			continue
		}
		k := key{e.Kernel, e.Scale}
		g := graphs[k]
		if g == nil {
			b, err := workload.ByID(e.Kernel)
			if err != nil {
				t.Fatal(err)
			}
			g = b.Make(e.Scale)
			graphs[k] = g
		}
		i := idx[e.Tenant]
		jobs[i] = append(jobs[i], sim.Job{AtUS: e.AtUS, Graph: g, DeadlineUS: e.DeadlineUS})
	}
	return tr, jobs, anchors
}

// TestGoldenRunOpenOverloadStorm pins one RunOpen replay of overload-storm
// per suite policy, with the suite's front-door settings.
func TestGoldenRunOpenOverloadStorm(t *testing.T) {
	_, jobs, anchors := stormOpenJobs(t)
	want := map[string]struct {
		events, endUS int64
		logHash       uint64
	}{
		"DWS":    {301646, 2164529, 0x3ce13593d19e9ec5},
		"ABP":    {403072, 2315299, 0xc48e6acb39588644},
		"EP":     {310990, 2121565, 0xfbdb2f0419b84edc},
		"DWS-NC": {132580, 2338927, 0x65025b33fb93e5ed},
		"GO":     {80964, 2296424, 0xb8aaa3daaf10123e},
	}
	for _, pol := range ScenarioPolicies {
		cfg := sim.DefaultConfig()
		cfg.Policy = pol
		m, err := sim.NewMachine(cfg, anchors)
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.RunOpen(sim.OpenOpts{
			Jobs:      jobs,
			Admission: &sim.AdmissionOpts{GlobalCap: len(anchors) * 8, EarlyReject: true},
		})
		if err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		h := fnv.New64a()
		for _, j := range res.Jobs {
			fmt.Fprintf(h, "%d %d %d %d %d %d\n", j.Prog, j.Index, j.AtUS, j.Status, j.StartUS, j.DoneUS)
		}
		w := want[pol.String()]
		if res.Events != w.events || res.EndTimeUS != w.endUS || h.Sum64() != w.logHash {
			t.Errorf("%v: events=%d end=%dµs log=%#x, want events=%d end=%dµs log=%#x",
				pol, res.Events, res.EndTimeUS, h.Sum64(), w.events, w.endUS, w.logHash)
		}
	}
}

// TestGoldenFederationSpillNext pins the suite's 3-shard next-preferred
// replay of overload-storm: per-shard event counts, the final time, the
// outcome log and the spill ledger. Every delivery to a shard is an event
// on its own heap, so each shard's count rose by exactly its deliveries
// when they became heap events — home arrivals plus spills in: 71+24,
// 69+35 and 78+19 over [81493 92111 100492]; log and end time held.
func TestGoldenFederationSpillNext(t *testing.T) {
	tr, _, anchors := stormOpenJobs(t)
	cfg := sim.DefaultConfig()
	cfg.Policy = sim.DWS
	cfg.Cores, cfg.SocketSize = FedCores, FedCores
	fr, err := scenario.RunFedSim(tr, scenario.FedSimOptions{
		Config:    cfg,
		Shards:    FedShards,
		Spill:     sim.SpillNext,
		QueueCap:  2,
		Admission: &sim.AdmissionOpts{GlobalCap: len(anchors) * 4, EarlyReject: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	var events []int64
	for _, sh := range fr.Fed.Shards {
		events = append(events, sh.Events)
	}
	h := fnv.New64a()
	for _, o := range fr.Fed.Outcomes {
		fmt.Fprintf(h, "%d %d %d %d %d %d %d\n", o.Tenant, o.Index, o.AtUS, o.Status, o.Shard, o.Spills, o.DoneUS)
	}
	for _, s := range fr.Fed.Spills {
		fmt.Fprintf(h, "%d>%d %s %d\n", s.From, s.To, s.Reason, s.Count)
	}
	got := fmt.Sprintf("events=%v end=%dµs log=%#x", events, fr.Fed.EndTimeUS, h.Sum64())
	const want = "events=[81588 92215 100589] end=2127110µs log=0xc6780551a4540a3e"
	if got != want {
		t.Errorf("federation replay:\n got %s\nwant %s", got, want)
	}
}
