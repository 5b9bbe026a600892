package sim

// Federated open-loop replay: RunFederation replays one global arrival
// stream through K independent machines ("shards"), the sim analog of a
// dwsrouter front tier over N dwsd instances, on the same driver as
// RunOpen, which is its one-machine case. Every shard hosts every tenant
// (dwsd creates tenants on first use); each job is offered to its
// tenant's home shard first and, when the home refuses it (queue full,
// global-cap reject, or a later shed from the WFQ backlog), may spill to a
// sibling under a configurable policy — {no-spill, random, next-preferred}
// — charging a per-(src,dst) spill latency on every redirect, so committed
// results can predict which spill policy the live router should run.
//
// Determinism: machines share no state. Each orders its own events by
// (at, seq): a tenant's home arrivals take the seqs armArrivals reserves,
// a spill the seq it draws when scheduled onto the destination. The
// driver steps the shard whose earliest event is earliest, equal times
// going to the lower shard index, and the one RNG (random spill) is
// seeded from the config. Given identical options a federated replay is
// bit-for-bit reproducible.

import (
	"fmt"
	"math/rand"
	"sort"

	"dws/internal/admit"
	"dws/internal/task"
)

// SpillNext is admit.SpillNext, the zero FedOpts.Spill.
const SpillNext = admit.SpillNext

// FedJob is one arrival in the federation's global job stream.
type FedJob struct {
	// Tenant indexes FedOpts.Programs.
	Tenant int
	// AtUS is the arrival time at the front tier.
	AtUS int64
	// Graph is the job's task graph.
	Graph *task.Graph
	// DeadlineUS bounds queue wait + run time from AtUS across every spill
	// hop (the deadline does not reset on redirect); 0 means none.
	DeadlineUS int64
}

// FedOpts configures a federated replay.
type FedOpts struct {
	// Cfg is the per-shard machine configuration; shard i runs it with
	// Seed+i so shards do not mirror each other's victim choices.
	Cfg Config
	// Shards is K, the number of machines.
	Shards int
	// Programs are the per-tenant anchor graphs, hosted on every shard.
	Programs []*task.Graph
	// Jobs is the global arrival stream. Each tenant's jobs must be in
	// time order, as RunOpen requires of a stream.
	Jobs []FedJob
	// Pref[tenant] is the shard preference order, home first — the ring
	// walk. Every entry must be a non-empty list of distinct shard indices.
	Pref [][]int
	// Spill is the redirect policy; admit.Next picks each redirect's shard.
	Spill admit.SpillPolicy
	// SpillBudget caps redirect hops per job; ≤0 is
	// admit.DefaultSpillBudget, as in the live router.
	SpillBudget int
	// SpillLatencyUS[from][to] is the redirect delay between shards (the
	// inter-machine generalization of the intra-machine socket latency
	// matrix); nil charges 0.
	SpillLatencyUS [][]int64
	// QueueCap bounds each tenant's per-shard admission queue (≤0 = 16).
	QueueCap int
	// Admission configures every shard's front door (see OpenOpts); nil
	// means the zero value.
	Admission *AdmissionOpts
	// HorizonUS aborts a runaway replay; 0 means none.
	HorizonUS int64
}

// FedOutcome is the terminal record of one federated job.
type FedOutcome struct {
	// Tenant and Index identify the job (Index is the global stream index).
	Tenant int
	Index  int
	// AtUS echoes the front-tier arrival time.
	AtUS int64
	// Status is the terminal classification.
	Status JobStatus
	// Shard is where the job resolved: the machine that ran it for
	// ok/late/expired, the last refusing machine for rejections and sheds.
	Shard int
	// Spills counts redirect hops taken.
	Spills int
	// DoneUS is the completion time (-1 if the job never ran).
	DoneUS int64
}

// SpillCount aggregates redirects over one (from, to, reason) edge.
// Reason is "reject" (refused at arrival) or "shed" (displaced from the
// WFQ backlog after admission), mirroring the live router's
// dws_router_spills_total labels.
type SpillCount struct {
	From, To int
	Reason   string
	Count    int64
}

// FedResults is the outcome of a federated replay.
type FedResults struct {
	// Outcomes[i] resolves Jobs[i].
	Outcomes []FedOutcome
	// Spills aggregates redirects, sorted by (From, To, Reason).
	Spills []SpillCount
	// EndTimeUS is the latest shard clock at termination.
	EndTimeUS int64
	// Shards holds each machine's own results (steal stats, busy time).
	Shards []*Results
}

// RunFederation replays the global job stream through K shards under the
// configured spill policy and returns per-job outcomes plus the spill
// ledger.
func RunFederation(opts FedOpts) (*FedResults, error) {
	if opts.Shards < 1 {
		return nil, fmt.Errorf("%w: Shards must be >= 1", ErrBadConfig)
	}
	if len(opts.Programs) == 0 {
		return nil, ErrNoPrograms
	}
	if len(opts.Jobs) == 0 {
		return nil, fmt.Errorf("%w: no jobs", ErrBadConfig)
	}
	if len(opts.Pref) != len(opts.Programs) {
		return nil, fmt.Errorf("%w: %d preference orders for %d tenants",
			ErrBadConfig, len(opts.Pref), len(opts.Programs))
	}
	for tn, pref := range opts.Pref {
		if len(pref) == 0 {
			return nil, fmt.Errorf("%w: tenant %d has an empty shard preference", ErrBadConfig, tn)
		}
		seen := make([]bool, opts.Shards)
		for _, s := range pref {
			if s < 0 || s >= opts.Shards {
				return nil, fmt.Errorf("%w: tenant %d prefers shard %d of %d", ErrBadConfig, tn, s, opts.Shards)
			}
			if seen[s] {
				return nil, fmt.Errorf("%w: tenant %d repeats shard %d", ErrBadConfig, tn, s)
			}
			seen[s] = true
		}
	}
	if opts.SpillLatencyUS != nil {
		if len(opts.SpillLatencyUS) != opts.Shards {
			return nil, fmt.Errorf("%w: SpillLatencyUS has %d rows for %d shards",
				ErrBadConfig, len(opts.SpillLatencyUS), opts.Shards)
		}
		for i, row := range opts.SpillLatencyUS {
			if len(row) != opts.Shards {
				return nil, fmt.Errorf("%w: SpillLatencyUS row %d has %d entries for %d shards",
					ErrBadConfig, i, len(row), opts.Shards)
			}
			for j, v := range row {
				if v < 0 {
					return nil, fmt.Errorf("%w: negative SpillLatencyUS[%d][%d]", ErrBadConfig, i, j)
				}
			}
		}
	}
	var valid task.Validator
	last := make([]int64, len(opts.Programs))
	count := make([]int, len(opts.Programs))
	for i, j := range opts.Jobs {
		if j.Tenant < 0 || j.Tenant >= len(opts.Programs) {
			return nil, fmt.Errorf("%w: job %d names tenant %d of %d", ErrBadConfig, i, j.Tenant, len(opts.Programs))
		}
		if j.AtUS < 0 || j.DeadlineUS < 0 {
			return nil, fmt.Errorf("%w: job %d has a negative time", ErrBadConfig, i)
		}
		if j.AtUS < last[j.Tenant] {
			return nil, fmt.Errorf("%w: job %d at %dµs out of order (tenant %d's prev %dµs)",
				ErrBadConfig, i, j.AtUS, j.Tenant, last[j.Tenant])
		}
		last[j.Tenant] = j.AtUS
		if err := valid.Validate(j.Graph); err != nil {
			return nil, fmt.Errorf("sim: federation job %d: %w", i, err)
		}
		count[j.Tenant]++
	}
	if opts.SpillBudget <= 0 {
		opts.SpillBudget = admit.DefaultSpillBudget
	}

	// A tenant's stream keeps each job's global index, whichever shard
	// the job ends on.
	total, k := len(opts.Jobs), opts.Shards
	streams := make([][]openJob, len(opts.Programs))
	for tn := range streams {
		streams[tn] = make([]openJob, 0, count[tn])
	}
	for i, j := range opts.Jobs {
		streams[j.Tenant] = append(streams[j.Tenant], openJob{
			Job: Job{AtUS: j.AtUS, Graph: j.Graph, DeadlineUS: j.DeadlineUS}, idx: i, startUS: -1})
	}

	// A tenant's stream arrives at its home shard; every other shard hosts
	// the tenant with nothing to arrive but spills.
	outstanding := total
	machines := make([]*Machine, k)
	for s := range machines {
		cfg := opts.Cfg
		cfg.Seed += int64(s) * 101
		m, err := NewMachine(cfg, opts.Programs)
		if err != nil {
			return nil, fmt.Errorf("sim: federation shard %d: %w", s, err)
		}
		home := make([][]openJob, len(streams))
		for tn, pref := range opts.Pref {
			if pref[0] == s {
				home[tn] = streams[tn]
			}
		}
		m.armOpen(opts.QueueCap, opts.Admission, nil, home, &outstanding)
		machines[s] = m
	}

	shards := make([]int, k) // every shard, in index order
	for s := range shards {
		shards[s] = s
	}
	spills := make([]int, total)
	visited := make([]bool, total*k) // visited[idx*k+s]: shard s has refused or shed job idx
	type spillKey struct {
		from, to int
		reason   string
	}
	spillLedger := map[spillKey]int64{}

	// The only nondeterminism budget in the whole replay: random spill
	// target choice, seeded off the shard config.
	rng := rand.New(rand.NewSource(opts.Cfg.Seed*2654435761 + 97))

	// A shard that refuses or sheds a job hands it to the next shard
	// admit.Next names, out of the shards that have not refused it, as a
	// delivery on that shard's own heap after the
	// redirect delay; with no shard left it resolves where it is.
	for s, m := range machines {
		m.spill = func(p *Program, j *openJob, v admit.Verdict) bool {
			seen := visited[j.idx*k : j.idx*k+k]
			seen[s] = true
			n, ok := admit.Next(opts.Spill, opts.Pref[p.idx], shards, spills[j.idx], opts.SpillBudget,
				func(d int) bool { return seen[d] }, rng.Intn)
			if !ok {
				return false
			}
			spills[j.idx]++
			reason := "reject"
			if v == admit.Shed {
				reason = "shed"
			}
			spillLedger[spillKey{s, n, reason}]++
			at := m.now
			if opts.SpillLatencyUS != nil {
				at += opts.SpillLatencyUS[s][n]
			}
			dst := machines[n]
			dst.schedule(at, func() { dst.deliver(dst.progs[p.idx], j) })
			return true
		}
	}

	if err := loop(machines, opts.HorizonUS); err != nil {
		return nil, err
	}

	res := &FedResults{Outcomes: make([]FedOutcome, total)}
	for s, m := range machines {
		for _, o := range m.jobLog {
			res.Outcomes[o.Index] = FedOutcome{Tenant: o.Prog, Index: o.Index, AtUS: o.AtUS,
				Status: o.Status, Shard: s, Spills: spills[o.Index], DoneUS: o.DoneUS}
		}
		res.EndTimeUS = max(res.EndTimeUS, m.now)
		res.Shards = append(res.Shards, m.results())
	}
	for e, n := range spillLedger {
		res.Spills = append(res.Spills, SpillCount{From: e.from, To: e.to, Reason: e.reason, Count: n})
	}
	sort.Slice(res.Spills, func(i, j int) bool {
		a, b := res.Spills[i], res.Spills[j]
		if a.From != b.From {
			return a.From < b.From
		}
		if a.To != b.To {
			return a.To < b.To
		}
		return a.Reason < b.Reason
	})
	return res, nil
}
