package schedcheck

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"time"

	"dws/internal/rt"
	"dws/internal/sim"
	"dws/internal/task"
	"dws/internal/topo"
	"dws/internal/trace"
	"dws/internal/vclock"
)

// The conformance oracle runs the same workload graphs through the
// discrete-event simulator and the virtual-clock live runtime and diffs
// the outcomes. The two substrates are not cycle-identical — the simulator
// models core occupancy in virtual µs while the live runtime's "cores" are
// goroutines time-shared by the host — so the oracle compares properties
// that must agree if both implement the same protocol:
//
//   - completion: every program finishes its target runs on both;
//   - capability: counters a policy cannot produce (claims under EP,
//     sleeps under ABP, …) are zero on both;
//   - makespan shares: per-program shares of total run time agree within a
//     stated tolerance under the space/time-sharing policies (ABP, EP),
//     where shares track the work ratio on any host;
//   - ranking: where the simulator separates program run times decisively
//     (ratio ≥ rankingDecisive), the live runtime ranks them the same way;
//   - exchange direction (DWS): on a workload pairing a serial tail with a
//     wide loop, the tail program sleeps and the wide program claims cores
//     on both substrates;
//   - invariants: the live run is watched by the Checker and must produce
//     zero violations.
//
// Under DWS both substrates run with the QoS arbiter enabled at equal
// weights: the arbiter must then degenerate to the paper's static
// HomeCores split (the sim side is bit-identical to an arbiter-disabled
// run; the live side's entitle batches are validated by the Checker's
// entitlement invariants), so conformance doubles as the degeneracy
// acceptance test for the arbitration layer.
//
// Anything that disagrees is recorded as a Divergence, and the whole
// report (including the simulator's trace summary) serialises to JSONL —
// the repro artifact CI uploads on failure.

// rankingDecisive is the sim run-time ratio above which the oracle
// requires the live runtime to reproduce the ordering.
const rankingDecisive = 1.5

// Scenario is one conformance workload: a set of programs (task graphs)
// co-running on a small machine.
type Scenario struct {
	// Name identifies the scenario in reports.
	Name string
	// Graphs are the co-running programs' workloads (one program each).
	Graphs []*task.Graph
	// Cores and TargetRuns shape the machine and the Fig. 3-style
	// repetition; programs = len(Graphs).
	Cores      int
	TargetRuns int
	// SocketSize, when positive and < Cores, runs both substrates (and
	// the invariant checker) on a multi-socket machine: topology-placed
	// entitled blocks and socket-first victim scans on both sides. 0 (the
	// default) is the flat machine.
	SocketSize int
	// ShareTol is the makespan-share tolerance enforced under ABP and EP
	// (0 defaults to 0.25).
	ShareTol float64
	// Exchange, when non-nil, asserts the DWS direction-of-exchange
	// property: program Tail must sleep and program Wide must claim cores
	// on both substrates (indices into Graphs).
	Exchange *ExchangeExpect
}

// ExchangeExpect names the two roles of the exchange-direction check.
type ExchangeExpect struct {
	Wide int `json:"wide"`
	Tail int `json:"tail"`
}

// ProgOutcome is one program's outcome on one substrate.
type ProgOutcome struct {
	Name string `json:"name"`
	Runs int    `json:"runs"`
	// MeanUS is the mean per-run duration: simulated µs on the sim side,
	// wall-clock µs on the live side (comparable only as shares/ranks).
	MeanUS    float64 `json:"mean_us"`
	Sleeps    int64   `json:"sleeps"`
	Wakes     int64   `json:"wakes"`
	Claims    int64   `json:"claims"`
	Reclaims  int64   `json:"reclaims"`
	Evictions int64   `json:"evictions"`
}

// SubstrateOutcome aggregates one substrate's programs.
type SubstrateOutcome struct {
	Programs []ProgOutcome `json:"programs"`
	// Shares is each program's fraction of the summed mean run times.
	Shares []float64 `json:"shares"`
}

// Divergence is one conformance disagreement between the substrates.
type Divergence struct {
	Scenario string `json:"scenario"`
	Policy   string `json:"policy"`
	Check    string `json:"check"`
	Detail   string `json:"detail"`
}

// PolicyReport is the conformance outcome of one scenario under one
// policy.
type PolicyReport struct {
	Scenario string           `json:"scenario"`
	Policy   string           `json:"policy"`
	Sim      SubstrateOutcome `json:"sim"`
	Live     SubstrateOutcome `json:"live"`
	// SimTrace is the simulator's trace-event summary (kind → count).
	SimTrace map[string]int `json:"sim_trace,omitempty"`
	// CheckerViolations counts live-side invariant violations (their
	// details ride along as divergences).
	CheckerViolations int          `json:"checker_violations"`
	Divergences       []Divergence `json:"divergences,omitempty"`
}

// Report is a full conformance run.
type Report struct {
	Seed    int64          `json:"seed"`
	Reports []PolicyReport `json:"reports"`
}

// Pass reports whether no scenario diverged.
func (r *Report) Pass() bool {
	for _, pr := range r.Reports {
		if len(pr.Divergences) > 0 {
			return false
		}
	}
	return true
}

// Divergences flattens every divergence in the report.
func (r *Report) Divergences() []Divergence {
	var ds []Divergence
	for _, pr := range r.Reports {
		ds = append(ds, pr.Divergences...)
	}
	return ds
}

// WriteJSONL streams one JSON line per policy report, then one per
// divergence — the artifact format CI uploads on failure.
func (r *Report) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, pr := range r.Reports {
		if err := enc.Encode(map[string]any{"report": pr}); err != nil {
			return err
		}
	}
	for _, d := range r.Divergences() {
		if err := enc.Encode(map[string]any{"divergence": d}); err != nil {
			return err
		}
	}
	return nil
}

// DumpArtifact writes the JSONL report to path.
func (r *Report) DumpArtifact(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return r.WriteJSONL(f)
}

// DefaultScenarios returns the three standing conformance workload shapes:
// a decisively skewed pair of flat loops, a serial tail co-running with a
// wide loop (the exchange-direction shape), and a divide-and-conquer vs
// iterative pair.
func DefaultScenarios() []Scenario {
	mk := func(name string, root *task.Node) *task.Graph {
		return &task.Graph{Name: name, Root: root}
	}
	return []Scenario{
		{
			Name: "wide-pair-3to1",
			Graphs: []*task.Graph{
				mk("wide3x", task.IterativeFor(3, 8, 120, 10)),
				mk("wide1x", task.IterativeFor(1, 8, 120, 10)),
			},
			Cores: 4, TargetRuns: 2,
		},
		{
			Name: "tail-vs-wide",
			Graphs: []*task.Graph{
				// 80% serial stage work, then a short parallel tail. The
				// serial phase must live in the stage (not a forked child):
				// a forked serial child leaves the forker spinning in Sync,
				// which never parks, and then neither substrate's tail ever
				// sleeps — the exchange this scenario exists to observe.
				mk("tail", task.IterativeFor(1, 4, 120, 1920)),
				mk("wide", task.ParallelFor(24, 100)),
			},
			Cores: 4, TargetRuns: 2,
			Exchange: &ExchangeExpect{Wide: 1, Tail: 0},
		},
		{
			Name: "dnc-vs-iter",
			Graphs: []*task.Graph{
				mk("dnc", task.DivideAndConquer(5, 2, 80, 5, 5)),
				mk("iter", task.IterativeFor(2, 6, 80, 10)),
			},
			Cores: 4, TargetRuns: 2,
		},
	}
}

// ConformancePolicies are the policies both substrates implement.
var ConformancePolicies = []rt.Policy{rt.ABP, rt.EP, rt.DWS, rt.DWSNC}

// RunConformance executes every scenario under every policy on both
// substrates and returns the diff report. seed parameterises the
// simulator's RNG (the live side derives determinism from the fake clock,
// not the seed).
func RunConformance(scenarios []Scenario, policies []rt.Policy, seed int64) (*Report, error) {
	rep := &Report{Seed: seed}
	for _, sc := range scenarios {
		for _, pol := range policies {
			pr, err := runOne(sc, pol, seed)
			if err != nil {
				return nil, fmt.Errorf("schedcheck: %s/%s: %w", sc.Name, pol, err)
			}
			rep.Reports = append(rep.Reports, pr)
		}
	}
	return rep, nil
}

// liveRetries bounds re-runs of the live side when the only divergences
// are wall-clock comparisons (shares, rankings). Those measure real time
// on a possibly oversubscribed host, so a marginal cell can flip on
// scheduling noise; a systematic divergence survives every retry. Hard
// checks — completion, capability, exchange, invariant violations — are
// never retried.
const liveRetries = 2

func runOne(sc Scenario, pol rt.Policy, seed int64) (PolicyReport, error) {
	simOut, simTrace, err := runSimSide(sc, pol, seed)
	if err != nil {
		return PolicyReport{Scenario: sc.Name, Policy: pol.String()},
			fmt.Errorf("sim side: %w", err)
	}
	var pr PolicyReport
	for attempt := 0; ; attempt++ {
		liveOut, checker, err := runLiveSide(sc, pol)
		if err != nil {
			return pr, fmt.Errorf("live side: %w", err)
		}
		pr = compareOne(sc, pol, simOut, simTrace, liveOut, checker)
		if len(pr.Divergences) == 0 || attempt >= liveRetries || !timingOnly(pr) {
			return pr, nil
		}
	}
}

// timingOnly reports whether every divergence is a wall-clock comparison
// (and no invariant was violated) — the only case runOne retries.
func timingOnly(pr PolicyReport) bool {
	if pr.CheckerViolations > 0 {
		return false
	}
	for _, d := range pr.Divergences {
		if d.Check != "ranking" && d.Check != "makespan-share" {
			return false
		}
	}
	return true
}

// compareOne diffs one live outcome against the sim outcome.
func compareOne(sc Scenario, pol rt.Policy, simOut SubstrateOutcome, simTrace map[string]int, liveOut SubstrateOutcome, checker *Checker) PolicyReport {
	pr := PolicyReport{Scenario: sc.Name, Policy: pol.String()}
	div := func(check, format string, args ...any) {
		pr.Divergences = append(pr.Divergences, Divergence{
			Scenario: sc.Name, Policy: pr.Policy,
			Check: check, Detail: fmt.Sprintf(format, args...),
		})
	}
	pr.Sim, pr.Live, pr.SimTrace = simOut, liveOut, simTrace

	// Completion.
	for i := range sc.Graphs {
		if simOut.Programs[i].Runs < sc.TargetRuns {
			div("completion", "sim: %s completed %d/%d runs",
				simOut.Programs[i].Name, simOut.Programs[i].Runs, sc.TargetRuns)
		}
		if liveOut.Programs[i].Runs < sc.TargetRuns {
			div("completion", "live: %s completed %d/%d runs",
				liveOut.Programs[i].Name, liveOut.Programs[i].Runs, sc.TargetRuns)
		}
	}

	// Capability matrix: counters a policy cannot produce must be zero on
	// both substrates.
	checkCap := func(side string, ps []ProgOutcome) {
		for _, p := range ps {
			if pol != rt.DWS && p.Claims+p.Reclaims+p.Evictions > 0 {
				div("capability", "%s: %s has table ops (%d claims, %d reclaims, %d evictions) under %s",
					side, p.Name, p.Claims, p.Reclaims, p.Evictions, pol)
			}
			if (pol == rt.ABP || pol == rt.EP) && p.Sleeps+p.Wakes > 0 {
				div("capability", "%s: %s slept/woke (%d/%d) under %s",
					side, p.Name, p.Sleeps, p.Wakes, pol)
			}
		}
	}
	checkCap("sim", simOut.Programs)
	checkCap("live", liveOut.Programs)

	// Makespan shares under the static policies (ABP time-shares, EP
	// space-shares evenly: shares track the work ratio on any host).
	if pol == rt.ABP || pol == rt.EP {
		tol := sc.ShareTol
		if tol <= 0 {
			tol = 0.25
		}
		for i := range sc.Graphs {
			if d := simOut.Shares[i] - liveOut.Shares[i]; d > tol || d < -tol {
				div("makespan-share", "%s: sim share %.2f vs live share %.2f (tol %.2f)",
					simOut.Programs[i].Name, simOut.Shares[i], liveOut.Shares[i], tol)
			}
		}
	}

	// Ranking: decisive sim separations must be reproduced live.
	for i := range sc.Graphs {
		for j := i + 1; j < len(sc.Graphs); j++ {
			si, sj := simOut.Programs[i].MeanUS, simOut.Programs[j].MeanUS
			li, lj := liveOut.Programs[i].MeanUS, liveOut.Programs[j].MeanUS
			if si >= sj*rankingDecisive && li < lj {
				div("ranking", "sim runs %s %.1fx slower than %s; live ranks them the other way",
					simOut.Programs[i].Name, si/sj, simOut.Programs[j].Name)
			}
			if sj >= si*rankingDecisive && lj < li {
				div("ranking", "sim runs %s %.1fx slower than %s; live ranks them the other way",
					simOut.Programs[j].Name, sj/si, simOut.Programs[i].Name)
			}
		}
	}

	// DWS exchange direction.
	if pol == rt.DWS && sc.Exchange != nil {
		w, t := sc.Exchange.Wide, sc.Exchange.Tail
		if simOut.Programs[t].Sleeps == 0 {
			div("exchange", "sim: tail program %s never slept", simOut.Programs[t].Name)
		}
		if liveOut.Programs[t].Sleeps == 0 {
			div("exchange", "live: tail program %s never slept", liveOut.Programs[t].Name)
		}
		if simOut.Programs[w].Claims == 0 {
			div("exchange", "sim: wide program %s never claimed a core", simOut.Programs[w].Name)
		}
		if liveOut.Programs[w].Claims == 0 {
			div("exchange", "live: wide program %s never claimed a core", liveOut.Programs[w].Name)
		}
	}

	// Live-side invariants.
	if vs := checker.Violations(); len(vs) > 0 {
		pr.CheckerViolations = len(vs)
		for _, v := range vs {
			div("invariant", "%s", v)
		}
	}
	return pr
}

// runSimSide executes the scenario on the discrete-event simulator with a
// neutral machine model (no cache or contention penalties), so the diff
// isolates scheduling behaviour.
func runSimSide(sc Scenario, pol rt.Policy, seed int64) (SubstrateOutcome, map[string]int, error) {
	socketSize := sc.Cores
	if sc.SocketSize > 0 {
		socketSize = sc.SocketSize
	}
	cfg := sim.Config{
		Cores:         sc.Cores,
		SocketSize:    socketSize,
		Policy:        simPolicy(pol),
		QuantumUS:     1000,
		CtxSwitchUS:   1,
		StealCostUS:   2,
		StealYieldUS:  50,
		WakeLatencyUS: 10,
		CoordPeriodUS: 1000,
		CachePenalty:  1,
		Seed:          seed,
		Debug:         true,
	}
	if cfg.Policy == sim.DWS {
		cfg.ArbiterPeriodUS = 1000
	}
	m, err := sim.NewMachine(cfg, sc.Graphs)
	if err != nil {
		return SubstrateOutcome{}, nil, err
	}
	rec := &trace.Recorder{}
	m.Trace = rec.Hook()
	res, err := m.Run(sim.RunOpts{TargetRuns: sc.TargetRuns})
	if err != nil {
		return SubstrateOutcome{}, nil, err
	}
	var out SubstrateOutcome
	for _, p := range res.Programs {
		out.Programs = append(out.Programs, ProgOutcome{
			Name:      p.Name,
			Runs:      p.Runs(),
			MeanUS:    p.MeanRunUS(),
			Sleeps:    p.Stats.Sleeps,
			Wakes:     p.Stats.Wakes,
			Claims:    p.Stats.Claims,
			Reclaims:  p.Stats.Reclaims,
			Evictions: p.Stats.Evictions,
		})
	}
	out.Shares = shares(out.Programs)
	sum := make(map[string]int)
	for k, n := range rec.Summary() {
		sum[k.String()] = n
	}
	return out, sum, nil
}

// runLiveSide executes the scenario on the live runtime under a fake
// clock, watched by the invariant Checker. A pump goroutine advances the
// clock by one coordinator period in a loop, so coordinator ticks, lease
// beats and Run's re-wake fallback all fire while the workers burn real
// CPU; determinism of the *protocol* is asserted by the checker, while
// durations are wall-clock (used only for shares and ranking).
func runLiveSide(sc Scenario, pol rt.Policy) (SubstrateOutcome, *Checker, error) {
	// Core slots are a runtime-level notion; real parallelism must not
	// exceed the physical host. Oversubscribing GOMAXPROCS pins spinning
	// workers on competing OS threads, and the OS's millisecond quanta then
	// swamp the wall-deadline burns that make live durations comparable to
	// the simulator's. With GOMAXPROCS ≤ NumCPU every goroutine rotates
	// through the Go scheduler at Gosched granularity instead.
	prev := runtime.GOMAXPROCS(min(sc.Cores, runtime.NumCPU()))
	defer runtime.GOMAXPROCS(prev)

	fake := vclock.NewFake()
	checker := New(Options{
		Cores:      sc.Cores,
		Programs:   len(sc.Graphs),
		Policy:     pol,
		SocketSize: sc.SocketSize,
	})
	const coordPeriod = 2 * time.Millisecond
	rtCfg := rt.Config{
		Cores:       sc.Cores,
		Programs:    len(sc.Graphs),
		Policy:      pol,
		CoordPeriod: coordPeriod,
		Clock:       fake,
		Observer:    checker.Observe,
	}
	if sc.SocketSize > 0 {
		rtCfg.Topology = topo.Uniform(sc.Cores, sc.SocketSize)
	}
	if pol == rt.DWS {
		// Arbitration at (implicit) equal weights: must degenerate to the
		// static split, watched by the entitlement invariants.
		rtCfg.ArbiterPeriod = coordPeriod
	}
	sys, err := rt.NewSystem(rtCfg)
	if err != nil {
		return SubstrateOutcome{}, nil, err
	}

	// Every program joins before virtual time starts: the arbiter and the
	// coordinators tick on the fake clock, so with the pump already running
	// the arbiter could publish for the first program alone and the second
	// would start on whatever home that left it — not the static split the
	// checker models a joiner on.
	progs := make([]*rt.Program, len(sc.Graphs))
	for i, g := range sc.Graphs {
		if progs[i], err = sys.NewProgram(g.Name); err != nil {
			break // reported below, once the pump sys.Close needs is running
		}
	}

	// Clock pump: keeps virtual time flowing until everything (including
	// sys.Close, whose retry timer is on the fake clock) is done.
	pumpStop := make(chan struct{})
	var pumpWG sync.WaitGroup
	pumpWG.Add(1)
	go func() {
		defer pumpWG.Done()
		for {
			select {
			case <-pumpStop:
				return
			default:
				fake.Advance(coordPeriod)
				// Throttle: virtual time still outruns real time by ~100x,
				// but the pump must not steal the CPU from the burning
				// workers on small hosts.
				time.Sleep(20 * time.Microsecond)
			}
		}
	}()
	defer func() {
		sys.Close()
		close(pumpStop)
		pumpWG.Wait()
	}()
	if err != nil {
		return SubstrateOutcome{}, nil, err
	}

	out := SubstrateOutcome{Programs: make([]ProgOutcome, len(sc.Graphs))}
	var wg sync.WaitGroup
	errs := make([]error, len(sc.Graphs))
	for i, g := range sc.Graphs {
		wg.Add(1)
		go func(i int, g *task.Graph, p *rt.Program) {
			defer wg.Done()
			var total time.Duration
			runs := 0
			for r := 0; r < sc.TargetRuns; r++ {
				start := time.Now()
				if err := p.Run(GraphTask(g.Root, WorkScale)); err != nil {
					errs[i] = err
					break
				}
				total += time.Since(start)
				runs++
			}
			st := p.Stats()
			out.Programs[i] = ProgOutcome{
				Name:      g.Name,
				Runs:      runs,
				MeanUS:    float64(total.Microseconds()) / float64(max(runs, 1)),
				Sleeps:    st.Sleeps,
				Wakes:     st.Wakes,
				Claims:    st.Claims,
				Reclaims:  st.Reclaims,
				Evictions: st.Evictions,
			}
		}(i, g, progs[i])
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return SubstrateOutcome{}, nil, err
		}
	}
	out.Shares = shares(out.Programs)
	return out, checker, nil
}

// WorkScale converts one simulated µs of task work into real busy time on
// the live side. It must be large enough that a run's wall time is
// dominated by task burn, not by scheduling noise (wakes, steals, the
// clock pump) — shares and rankings are only comparable to the simulator
// when the signal wins — yet small enough that a whole conformance sweep
// stays test-sized.
const WorkScale = 2 * time.Microsecond

// GraphTask bridges a task-graph node to a live rt.Task: each stage burns
// its serial work, spawns its children and joins them — the same barrier
// semantics the simulator executes.
func GraphTask(n *task.Node, scale time.Duration) rt.Task {
	return func(c *rt.Ctx) {
		for _, st := range n.Stages {
			burn(time.Duration(st.Work) * scale)
			for _, child := range st.Children {
				c.Spawn(GraphTask(child, scale))
			}
			c.Sync()
		}
	}
}

// burn busy-spins for roughly d of wall time (yielding periodically so
// co-runners make progress on oversubscribed hosts).
func burn(d time.Duration) {
	if d <= 0 {
		return
	}
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		for i := 0; i < 64; i++ {
			_ = i * i
		}
		runtime.Gosched()
	}
}

func shares(ps []ProgOutcome) []float64 {
	total := 0.0
	for _, p := range ps {
		total += p.MeanUS
	}
	out := make([]float64, len(ps))
	if total == 0 {
		return out
	}
	for i, p := range ps {
		out[i] = p.MeanUS / total
	}
	return out
}

func simPolicy(pol rt.Policy) sim.Policy {
	switch pol {
	case rt.ABP:
		return sim.ABP
	case rt.EP:
		return sim.EP
	case rt.DWS:
		return sim.DWS
	case rt.DWSNC:
		return sim.DWSNC
	default:
		panic(fmt.Sprintf("schedcheck: policy %v has no simulator counterpart", pol))
	}
}
