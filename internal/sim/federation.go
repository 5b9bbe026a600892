package sim

// Federated open-loop replay: RunFederation drives K independent machines
// ("shards") in event-time lockstep off one global arrival stream, the sim
// analog of a dwsrouter front tier over N dwsd instances. Every shard
// hosts every tenant (dwsd creates tenants on first use); each job is
// offered to its tenant's home shard first and, when the home refuses it
// (queue full, global-cap reject, or a later shed from the WFQ backlog),
// the driver may spill it to a sibling under a configurable policy —
// {no-spill, random, next-preferred} — charging a per-(src,dst) spill
// latency on every redirect, so committed results can predict which spill
// policy the live router should run before it exists in production.
//
// Determinism: machines share no state; the driver always advances the
// globally earliest event (ties broken by shard index, with arrivals
// firing before same-time machine events), arrivals at equal times fire in
// job-index order, and the only RNG (random spill) is seeded from the
// config. Given identical options a federated replay is bit-for-bit
// reproducible.

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"dws/internal/admit"
	"dws/internal/task"
)

// SpillPolicy selects how a refused job is redirected between shards.
type SpillPolicy int

const (
	// SpillNone never redirects: a refused job resolves at its home shard.
	SpillNone SpillPolicy = iota
	// SpillRandom redirects to a uniformly random unvisited shard.
	SpillRandom
	// SpillNext redirects to the next unvisited shard in the tenant's
	// preference order (the consistent-hash ring walk the live router uses).
	SpillNext
)

// ParseSpillPolicy maps the CLI/scenario names onto a policy.
func ParseSpillPolicy(s string) (SpillPolicy, error) {
	switch s {
	case "", "none", "no-spill":
		return SpillNone, nil
	case "random", "random-spill":
		return SpillRandom, nil
	case "next", "next-preferred", "next-preferred-spill":
		return SpillNext, nil
	}
	return 0, fmt.Errorf("sim: unknown spill policy %q (want none|random|next)", s)
}

// String names the policy as reports and BENCH_federation.json do.
func (s SpillPolicy) String() string {
	switch s {
	case SpillNone:
		return "no-spill"
	case SpillRandom:
		return "random"
	case SpillNext:
		return "next-preferred"
	default:
		return fmt.Sprintf("SpillPolicy(%d)", int(s))
	}
}

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
	// Jobs is the global arrival stream. Arrivals at equal times fire in
	// index order.
	Jobs []FedJob
	// Pref[tenant] is the shard preference order, home first — the ring
	// walk. Every entry must be a non-empty list of distinct shard indices.
	Pref [][]int
	// Spill is the redirect policy.
	Spill SpillPolicy
	// SpillBudget caps redirect hops per job; ≤0 defaults to 2, matching
	// the live router.
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

// startFed arms a machine for driver-injected arrivals: all programs
// activate at time 0 and the machine never self-stops (the federation
// driver owns termination).
func (m *Machine) startFed(queueCap int, adm *AdmissionOpts) error {
	if m.nEv > 0 || m.jobMode {
		return fmt.Errorf("%w: machine already ran", ErrBadConfig)
	}
	m.armAdmission(queueCap, adm)
	m.jobMode = true
	m.fedMode = true
	for _, p := range m.progs {
		m.activateProgram(p)
		if m.cfg.Policy == DWS || m.cfg.Policy == DWSNC {
			m.scheduleCoordinator(p)
		}
	}
	for _, c := range m.cores {
		if c.cur == nil {
			m.dispatch(c)
		}
	}
	if m.arb != nil {
		m.scheduleArbiter()
	}
	return nil
}

// advanceBefore runs every event strictly before t and moves the clock
// forward to t (never backwards: a shard whose clock already passed t —
// a spill arriving from a slower sibling — stays where it is, and the
// job effectively arrives at the shard's present).
func (m *Machine) advanceBefore(t int64) error {
	for len(m.events) > 0 && m.events[0].at < t {
		if err := m.step(); err != nil {
			return err
		}
	}
	if m.now < t {
		m.now = t
	}
	return nil
}

// fedArrival is one pending delivery of a job to a shard.
type fedArrival struct {
	at    int64
	seq   int64
	job   int
	shard int
}

type fedArrivalHeap []*fedArrival

func (h fedArrivalHeap) Len() int { return len(h) }
func (h fedArrivalHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h fedArrivalHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *fedArrivalHeap) Push(x any)   { *h = append(*h, x.(*fedArrival)) }
func (h *fedArrivalHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
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
	for i, j := range opts.Jobs {
		if j.Tenant < 0 || j.Tenant >= len(opts.Programs) {
			return nil, fmt.Errorf("%w: job %d names tenant %d of %d", ErrBadConfig, i, j.Tenant, len(opts.Programs))
		}
		if j.AtUS < 0 || j.DeadlineUS < 0 {
			return nil, fmt.Errorf("%w: job %d has a negative time", ErrBadConfig, i)
		}
		if err := valid.Validate(j.Graph); err != nil {
			return nil, fmt.Errorf("sim: federation job %d: %w", i, err)
		}
	}
	if opts.SpillBudget <= 0 {
		opts.SpillBudget = 2
	}

	machines := make([]*Machine, opts.Shards)
	for s := range machines {
		cfg := opts.Cfg
		cfg.Seed += int64(s) * 101
		m, err := NewMachine(cfg, opts.Programs)
		if err != nil {
			return nil, fmt.Errorf("sim: federation shard %d: %w", s, err)
		}
		if err := m.startFed(opts.QueueCap, opts.Admission); err != nil {
			return nil, fmt.Errorf("sim: federation shard %d: %w", s, err)
		}
		machines[s] = m
	}

	type fedState struct {
		visited []bool
		budget  int
		spills  int
	}
	total := len(opts.Jobs)
	states := make([]fedState, total)
	open := make([]*openJob, total)
	outcomes := make([]FedOutcome, total)
	terminal := 0
	resolve := func(idx int, st JobStatus, shard int, doneUS int64) {
		outcomes[idx] = FedOutcome{
			Tenant: opts.Jobs[idx].Tenant,
			Index:  idx,
			AtUS:   opts.Jobs[idx].AtUS,
			Status: st,
			Shard:  shard,
			Spills: states[idx].spills,
			DoneUS: doneUS,
		}
		terminal++
	}

	type spillKey struct {
		from, to int
		reason   string
	}
	spillLedger := map[spillKey]int64{}
	latency := func(from, to int) int64 {
		if opts.SpillLatencyUS == nil {
			return 0
		}
		return opts.SpillLatencyUS[from][to]
	}

	// The only nondeterminism budget in the whole replay: random spill
	// target choice, seeded off the shard config.
	rng := rand.New(rand.NewSource(opts.Cfg.Seed*2654435761 + 97))
	nextShard := func(idx, cur int) int {
		st := &states[idx]
		if opts.Spill == SpillNone || st.budget <= 0 {
			return -1
		}
		if opts.Spill == SpillNext {
			for _, s := range opts.Pref[opts.Jobs[idx].Tenant] {
				if !st.visited[s] {
					return s
				}
			}
			return -1
		}
		var cands []int
		for s := 0; s < opts.Shards; s++ {
			if !st.visited[s] {
				cands = append(cands, s)
			}
		}
		if len(cands) == 0 {
			return -1
		}
		return cands[rng.Intn(len(cands))]
	}

	arrivals := &fedArrivalHeap{}
	var arrSeq int64
	pushArrival := func(at int64, job, shard int) {
		arrSeq++
		heap.Push(arrivals, &fedArrival{at: at, seq: arrSeq, job: job, shard: shard})
	}
	for i, j := range opts.Jobs {
		states[i] = fedState{visited: make([]bool, opts.Shards), budget: opts.SpillBudget}
		open[i] = &openJob{Job: Job{AtUS: j.AtUS, Graph: j.Graph, DeadlineUS: j.DeadlineUS}, idx: i, startUS: -1}
		pushArrival(j.AtUS, i, opts.Pref[j.Tenant][0])
	}
	heap.Init(arrivals)

	// Shed jobs come back through the fedShed hook mid-event: redirect or
	// resolve them in place.
	for s := range machines {
		s := s
		m := machines[s]
		m.fedShed = func(_ *Program, j *openJob) {
			idx := j.idx
			n := nextShard(idx, s)
			if n < 0 {
				resolve(idx, JobShed, s, -1)
				return
			}
			states[idx].budget--
			states[idx].spills++
			spillLedger[spillKey{s, n, "shed"}]++
			pushArrival(m.now+latency(s, n), idx, n)
		}
	}

	// Outcomes the machines log (ok/late/expired) surface by draining each
	// machine's log cursor after it processes events.
	consumed := make([]int, opts.Shards)
	drain := func(s int) {
		m := machines[s]
		for ; consumed[s] < len(m.jobLog); consumed[s]++ {
			e := m.jobLog[consumed[s]]
			resolve(e.Index, e.Status, s, e.DoneUS)
		}
	}

	deliver := func(a *fedArrival) {
		idx := a.job
		st := &states[idx]
		st.visited[a.shard] = true
		m := machines[a.shard]
		p := m.progs[opts.Jobs[idx].Tenant]
		v := m.offer(p, open[idx])
		if v == admit.Admitted {
			return // the machine's log resolves it
		}
		// A verdict that is not spillable is terminal here exactly as the
		// live router relays it to the client unspilled.
		n := -1
		if v.Spillable() {
			n = nextShard(idx, a.shard)
		}
		if n < 0 {
			resolve(idx, refusalStatus(v), a.shard, -1)
			return
		}
		st.budget--
		st.spills++
		spillLedger[spillKey{a.shard, n, "reject"}]++
		pushArrival(m.now+latency(a.shard, n), idx, n)
	}

	for terminal < total {
		mi := -1
		tm := int64(math.MaxInt64)
		for i, m := range machines {
			if len(m.events) > 0 && m.events[0].at < tm {
				tm, mi = m.events[0].at, i
			}
		}
		ta := int64(math.MaxInt64)
		if arrivals.Len() > 0 {
			ta = (*arrivals)[0].at
		}
		if mi == -1 && ta == math.MaxInt64 {
			return nil, ErrStalled
		}
		t := ta
		if tm < t {
			t = tm
		}
		if opts.HorizonUS > 0 && t > opts.HorizonUS {
			return nil, ErrHorizon
		}
		if ta <= tm {
			a := heap.Pop(arrivals).(*fedArrival)
			if err := machines[a.shard].advanceBefore(a.at); err != nil {
				return nil, err
			}
			drain(a.shard)
			deliver(a)
			drain(a.shard)
		} else {
			if err := machines[mi].step(); err != nil {
				return nil, err
			}
			drain(mi)
		}
	}

	res := &FedResults{Outcomes: outcomes}
	for _, m := range machines {
		if m.now > res.EndTimeUS {
			res.EndTimeUS = m.now
		}
		res.Shards = append(res.Shards, m.results())
	}
	for k, n := range spillLedger {
		res.Spills = append(res.Spills, SpillCount{From: k.from, To: k.to, Reason: k.reason, Count: n})
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
