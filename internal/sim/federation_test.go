package sim

import (
	"errors"
	"reflect"
	"testing"

	"dws/internal/task"
)

func fedGraphs(n int) []*task.Graph {
	out := make([]*task.Graph, n)
	for i := range out {
		out[i] = &task.Graph{Name: "t" + string(rune('a'+i)), Root: task.Leaf(1), MemIntensity: 0.5}
	}
	return out
}

// fedStream interleaves per-tenant uniform streams into one global stream.
func fedStream(tenants, perTenant int, gapUS, deadlineUS int64) []FedJob {
	var jobs []FedJob
	for k := 0; k < perTenant; k++ {
		for tn := 0; tn < tenants; tn++ {
			jobs = append(jobs, FedJob{
				Tenant:     tn,
				AtUS:       int64(k)*gapUS + int64(tn)*100,
				Graph:      &task.Graph{Name: "job", Root: smallRoot()},
				DeadlineUS: deadlineUS,
			})
		}
	}
	return jobs
}

// roundRobinPref homes tenant tn on shard tn%K and walks the rest in
// ring order, the shape the router's Preference produces.
func roundRobinPref(tenants, shards int) [][]int {
	pref := make([][]int, tenants)
	for tn := range pref {
		for s := 0; s < shards; s++ {
			pref[tn] = append(pref[tn], (tn+s)%shards)
		}
	}
	return pref
}

func smallFedCfg() Config {
	cfg := DefaultConfig()
	cfg.Cores = 4
	cfg.SocketSize = 4
	cfg.Seed = 11
	return cfg
}

// TestFederationDeterminism: identical options give a bit-identical
// outcome log, spill ledger, and end time — including under random spill,
// whose RNG is seeded from the config.
func TestFederationDeterminism(t *testing.T) {
	for _, pol := range []SpillPolicy{SpillNone, SpillRandom, SpillNext} {
		run := func() *FedResults {
			res, err := RunFederation(FedOpts{
				Cfg:       smallFedCfg(),
				Shards:    3,
				Programs:  fedGraphs(3),
				Jobs:      fedStream(3, 30, 2_000, 50_000),
				Pref:      roundRobinPref(3, 3),
				Spill:     pol,
				QueueCap:  2,
				Admission: &AdmissionOpts{GlobalCap: 4, EarlyReject: true},
				HorizonUS: 60_000_000_000,
			})
			if err != nil {
				t.Fatalf("%v: %v", pol, err)
			}
			return res
		}
		a, b := run(), run()
		if !reflect.DeepEqual(a.Outcomes, b.Outcomes) {
			t.Fatalf("%v: outcomes differ between identical replays", pol)
		}
		if !reflect.DeepEqual(a.Spills, b.Spills) {
			t.Fatalf("%v: spill ledgers differ between identical replays", pol)
		}
		if a.EndTimeUS != b.EndTimeUS {
			t.Fatalf("%v: end times differ: %d vs %d", pol, a.EndTimeUS, b.EndTimeUS)
		}
	}
}

// TestFederationNoSpillMatchesIndependentShards is the federation
// regression anchor: under no-spill, K federated shards are K independent
// machines, so every tenant's (status, done-time) sequence must be
// bit-identical to replaying its home shard alone with RunOpen using the
// same per-shard config (Seed+s·101) and the same tenant set.
func TestFederationNoSpillMatchesIndependentShards(t *testing.T) {
	const shards, tenants, perTenant = 3, 3, 25
	graphs := fedGraphs(tenants)
	jobs := fedStream(tenants, perTenant, 3_000, 60_000)
	pref := roundRobinPref(tenants, shards)

	fed, err := RunFederation(FedOpts{
		Cfg:       smallFedCfg(),
		Shards:    shards,
		Programs:  graphs,
		Jobs:      jobs,
		Pref:      pref,
		Spill:     SpillNone,
		QueueCap:  3,
		HorizonUS: 60_000_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}

	type key struct {
		status JobStatus
		done   int64
	}
	fedSeq := make([][]key, tenants)
	for _, o := range fed.Outcomes {
		if o.Spills != 0 {
			t.Fatalf("no-spill replay recorded %d spills on job %d", o.Spills, o.Index)
		}
		if o.Shard != pref[o.Tenant][0] {
			t.Fatalf("job %d resolved on shard %d, home is %d", o.Index, o.Shard, pref[o.Tenant][0])
		}
		fedSeq[o.Tenant] = append(fedSeq[o.Tenant], key{o.Status, o.DoneUS})
	}
	if len(fed.Spills) != 0 {
		t.Fatalf("no-spill replay has a spill ledger: %+v", fed.Spills)
	}

	// Replay each shard alone: all tenants registered (the federation
	// hosts every tenant on every shard), job streams only for the homed.
	for s := 0; s < shards; s++ {
		cfg := smallFedCfg()
		cfg.Seed += int64(s) * 101
		m := mustMachine(t, cfg, graphs)
		streams := make([][]Job, tenants)
		for _, j := range jobs {
			if pref[j.Tenant][0] != s {
				continue
			}
			streams[j.Tenant] = append(streams[j.Tenant],
				Job{AtUS: j.AtUS, Graph: j.Graph, DeadlineUS: j.DeadlineUS})
		}
		res, err := m.RunOpen(OpenOpts{Jobs: streams, QueueCap: 3, HorizonUS: 60_000_000_000})
		if err != nil {
			t.Fatalf("shard %d solo: %v", s, err)
		}
		solo := make([][]key, tenants)
		for _, o := range res.Jobs {
			solo[o.Prog] = append(solo[o.Prog], key{o.Status, o.DoneUS})
		}
		for tn := 0; tn < tenants; tn++ {
			if pref[tn][0] != s {
				continue
			}
			if !reflect.DeepEqual(fedSeq[tn], solo[tn]) {
				t.Errorf("shard %d tenant %d: federated %v, solo %v", s, tn, fedSeq[tn], solo[tn])
			}
		}
	}
}

// TestFederationNextPreferredBeatsNoSpill: every tenant homes on shard 0
// while shards 1 and 2 idle; spilling the overflow must complete strictly
// more jobs than letting shard 0 reject them.
func TestFederationNextPreferredBeatsNoSpill(t *testing.T) {
	const tenants = 2
	graphs := fedGraphs(tenants)
	pref := make([][]int, tenants)
	for tn := range pref {
		pref[tn] = []int{0, 1, 2}
	}
	jobs := fedStream(tenants, 40, 500, 0) // a storm: far beyond one shard
	run := func(pol SpillPolicy) int {
		res, err := RunFederation(FedOpts{
			Cfg:       smallFedCfg(),
			Shards:    3,
			Programs:  graphs,
			Jobs:      jobs,
			Pref:      pref,
			Spill:     pol,
			QueueCap:  2,
			HorizonUS: 60_000_000_000,
		})
		if err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		ok := 0
		for _, o := range res.Outcomes {
			if o.Status == JobOK {
				ok++
			}
		}
		if pol != SpillNone {
			spilled := false
			for _, o := range res.Outcomes {
				if o.Spills > 0 {
					spilled = true
					if o.Status == JobOK && o.Shard == 0 {
						t.Errorf("%v: job %d spilled yet resolved on its home", pol, o.Index)
					}
				}
			}
			if !spilled {
				t.Fatalf("%v: overload storm produced no spills", pol)
			}
		}
		return ok
	}
	okNone := run(SpillNone)
	okNext := run(SpillNext)
	if okNext <= okNone {
		t.Fatalf("next-preferred completed %d jobs, no-spill %d: spilling to idle shards must win", okNext, okNone)
	}
}

// TestFederationSpillLatencyCharged: a spilled job cannot finish before
// its redirect delay has elapsed, and raising the delay never helps.
func TestFederationSpillLatencyCharged(t *testing.T) {
	const latUS = 40_000
	graphs := fedGraphs(1)
	pref := [][]int{{0, 1}}
	jobs := fedStream(1, 30, 500, 120_000)
	run := func(mat [][]int64) *FedResults {
		res, err := RunFederation(FedOpts{
			Cfg:            smallFedCfg(),
			Shards:         2,
			Programs:       graphs,
			Jobs:           jobs,
			Pref:           pref,
			Spill:          SpillNext,
			SpillLatencyUS: mat,
			QueueCap:       1,
			HorizonUS:      60_000_000_000,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	slow := run([][]int64{{0, latUS}, {latUS, 0}})
	spilledRan := 0
	for _, o := range slow.Outcomes {
		if o.Spills > 0 && o.DoneUS >= 0 {
			spilledRan++
			if o.DoneUS < o.AtUS+latUS {
				t.Fatalf("job %d spilled yet finished %dµs after arrival, before the %dµs hop",
					o.Index, o.DoneUS-o.AtUS, latUS)
			}
		}
	}
	if spilledRan == 0 {
		t.Fatal("no spilled job ran; the latency charge is untested")
	}
	// Deadlines are measured from the original arrival across hops: the
	// zero-latency run must meet at least as many as the slow one.
	fast := run(nil)
	okOf := func(r *FedResults) int {
		n := 0
		for _, o := range r.Outcomes {
			if o.Status == JobOK {
				n++
			}
		}
		return n
	}
	if okOf(fast) < okOf(slow) {
		t.Fatalf("zero-latency spill completed %d < %d with %dµs hops", okOf(fast), okOf(slow), latUS)
	}
}

// TestFederationBudgetBoundsHops: no outcome may record more hops than
// the budget, and a budget of zero rounds up to the default 2.
func TestFederationBudgetBoundsHops(t *testing.T) {
	graphs := fedGraphs(2)
	pref := roundRobinPref(2, 4)
	jobs := fedStream(2, 60, 300, 0)
	for _, budget := range []int{1, 3} {
		res, err := RunFederation(FedOpts{
			Cfg:         smallFedCfg(),
			Shards:      4,
			Programs:    graphs,
			Jobs:        jobs,
			Pref:        pref,
			Spill:       SpillRandom,
			SpillBudget: budget,
			QueueCap:    1,
			HorizonUS:   60_000_000_000,
		})
		if err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		maxHops := 0
		for _, o := range res.Outcomes {
			if o.Spills > maxHops {
				maxHops = o.Spills
			}
		}
		if maxHops > budget {
			t.Fatalf("budget %d: a job took %d hops", budget, maxHops)
		}
		if maxHops == 0 {
			t.Fatalf("budget %d: storm produced no spills", budget)
		}
	}
}

// TestFederationShedSpills: under a WFQ global cap the home shard sheds
// admitted backlog; those jobs must re-route with reason "shed" in the
// ledger rather than silently dying.
func TestFederationShedSpills(t *testing.T) {
	graphs := fedGraphs(2)
	pref := [][]int{{0, 1}, {0, 1}}
	res, err := RunFederation(FedOpts{
		Cfg:      smallFedCfg(),
		Shards:   2,
		Programs: graphs,
		Jobs:     fedStream(2, 40, 400, 0),
		Pref:     pref,
		Spill:    SpillNext,
		QueueCap: 8,
		// Asymmetric weights: the heavy tenant's arrivals displace the light
		// tenant's queued tail at the global cap.
		Admission: &AdmissionOpts{GlobalCap: 3, Weights: []float64{10, 1}},
		HorizonUS: 60_000_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	shedEdges := int64(0)
	for _, sp := range res.Spills {
		if sp.Reason == "shed" {
			shedEdges += sp.Count
		}
	}
	if shedEdges == 0 {
		t.Fatal("global-cap storm spilled no shed jobs")
	}
	// Every job still resolves exactly once.
	for i, o := range res.Outcomes {
		if o.Index != i {
			t.Fatalf("outcome %d indexed %d", i, o.Index)
		}
	}
}

// TestFederationEarlyRejectTerminal: early rejections never spill — the
// prediction priced the tenant's own backlog, which follows it everywhere.
func TestFederationEarlyRejectTerminal(t *testing.T) {
	graphs := fedGraphs(1)
	res, err := RunFederation(FedOpts{
		Cfg:      smallFedCfg(),
		Shards:   2,
		Programs: graphs,
		// Tight deadlines against a saturating stream: early rejection fires.
		Jobs:      fedStream(1, 50, 300, 2_000),
		Pref:      [][]int{{0, 1}},
		Spill:     SpillNext,
		QueueCap:  8,
		Admission: &AdmissionOpts{EarlyReject: true},
		HorizonUS: 60_000_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	early := 0
	for _, o := range res.Outcomes {
		if o.Status == JobEarlyReject {
			early++
			if o.Spills != 0 {
				t.Fatalf("job %d early-rejected after %d spill hops", o.Index, o.Spills)
			}
			if o.Shard != 0 {
				t.Fatalf("job %d early-rejected on shard %d, not its home", o.Index, o.Shard)
			}
		}
	}
	if early == 0 {
		t.Fatal("tight-deadline storm produced no early rejections")
	}
}

// TestFederationSpilledBudgetExhausted: a spill can deliver a job to a
// sibling with its deadline budget already spent (spill latency larger
// than the deadline). A warm, busy sibling early-rejects it — any
// predicted wait exceeds a budget ≤ 0 — while the same job with no
// deadline at all is never early-rejected: "no deadline" and "budget
// exhausted" are different arrivals.
func TestFederationSpilledBudgetExhausted(t *testing.T) {
	const spillUS = 5_000
	for _, tc := range []struct {
		name       string
		deadlineUS int64
		want       JobStatus
	}{
		{"deadline shorter than the spill hop", 2_000, JobEarlyReject},
		{"no deadline", 0, JobOK},
	} {
		job := func(atUS, deadlineUS int64, root *task.Node) FedJob {
			return FedJob{AtUS: atUS, Graph: &task.Graph{Name: "job", Root: root}, DeadlineUS: deadlineUS}
		}
		res, err := RunFederation(FedOpts{
			Cfg:      smallFedCfg(),
			Shards:   2,
			Programs: fedGraphs(1),
			Jobs: []FedJob{
				// The home shard stays cold (its first job outlives the test)
				// and full (QueueCap 1), so everything after spills.
				job(0, 0, task.ParallelFor(64, 120_000)),
				job(100, 0, smallRoot()),
				job(200, 0, smallRoot()),  // runs on the sibling: warms it
				job(50_000, 0, bigRoot()), // runs on the sibling: keeps it busy
				job(100_000, tc.deadlineUS, smallRoot()),
			},
			Pref:           [][]int{{0, 1}},
			Spill:          SpillNext,
			SpillLatencyUS: [][]int64{{0, spillUS}, {spillUS, 0}},
			QueueCap:       1,
			Admission:      &AdmissionOpts{EarlyReject: true},
			HorizonUS:      60_000_000_000,
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if o := res.Outcomes[3]; o.Shard != 1 || o.Status != JobOK || o.DoneUS < 100_000+spillUS {
			t.Fatalf("%s: the sibling was not busy when the probe landed: %+v", tc.name, o)
		}
		if o := res.Outcomes[4]; o.Status != tc.want || o.Shard != 1 || o.Spills != 1 {
			t.Errorf("%s: probe resolved %+v, want %v on shard 1 after 1 spill", tc.name, o, tc.want)
		}
	}
}

// TestFederationValidation: malformed options fail loudly.
func TestFederationValidation(t *testing.T) {
	graphs := fedGraphs(1)
	base := func() FedOpts {
		return FedOpts{
			Cfg:      smallFedCfg(),
			Shards:   2,
			Programs: graphs,
			Jobs:     fedStream(1, 2, 1_000, 0),
			Pref:     [][]int{{0, 1}},
		}
	}
	cases := []struct {
		name string
		mut  func(*FedOpts)
	}{
		{"no shards", func(o *FedOpts) { o.Shards = 0 }},
		{"no jobs", func(o *FedOpts) { o.Jobs = nil }},
		{"pref count", func(o *FedOpts) { o.Pref = nil }},
		{"empty pref", func(o *FedOpts) { o.Pref = [][]int{{}} }},
		{"pref out of range", func(o *FedOpts) { o.Pref = [][]int{{0, 2}} }},
		{"pref repeats", func(o *FedOpts) { o.Pref = [][]int{{0, 0}} }},
		{"latency rows", func(o *FedOpts) { o.SpillLatencyUS = [][]int64{{0, 0}} }},
		{"latency ragged", func(o *FedOpts) { o.SpillLatencyUS = [][]int64{{0}, {0, 0}} }},
		{"latency negative", func(o *FedOpts) { o.SpillLatencyUS = [][]int64{{0, -1}, {0, 0}} }},
		{"bad tenant", func(o *FedOpts) { o.Jobs[0].Tenant = 9 }},
		{"negative time", func(o *FedOpts) { o.Jobs[0].AtUS = -1 }},
	}
	for _, tc := range cases {
		o := base()
		tc.mut(&o)
		if _, err := RunFederation(o); !errors.Is(err, ErrBadConfig) && err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestParseSpillPolicy: names round-trip and junk is refused.
func TestParseSpillPolicy(t *testing.T) {
	for name, want := range map[string]SpillPolicy{
		"":                     SpillNone,
		"none":                 SpillNone,
		"no-spill":             SpillNone,
		"random":               SpillRandom,
		"random-spill":         SpillRandom,
		"next":                 SpillNext,
		"next-preferred":       SpillNext,
		"next-preferred-spill": SpillNext,
	} {
		got, err := ParseSpillPolicy(name)
		if err != nil || got != want {
			t.Errorf("ParseSpillPolicy(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParseSpillPolicy("sideways"); err == nil {
		t.Error("junk policy accepted")
	}
	for _, p := range []SpillPolicy{SpillNone, SpillRandom, SpillNext} {
		rt, err := ParseSpillPolicy(p.String())
		if err != nil || rt != p {
			t.Errorf("%v does not round-trip through String", p)
		}
	}
}
