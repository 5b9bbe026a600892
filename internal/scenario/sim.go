package scenario

import (
	"fmt"

	"dws/internal/sim"
	"dws/internal/task"
	"dws/internal/workload"
)

// SimOptions configures a simulated replay.
type SimOptions struct {
	// Config is the simulated machine (sim.DefaultConfig() + policy is the
	// usual starting point). Weights and ArbiterPeriodUS are filled from
	// the trace's weight declarations when the policy is DWS.
	Config sim.Config
	// QueueCap bounds each tenant's admission queue (≤0 = 16, matching
	// dwsd).
	QueueCap int
	// HorizonUS aborts a runaway replay; ≤0 derives a generous bound from
	// the trace length.
	HorizonUS int64
	// Admission configures the front door (weighted fair queueing,
	// shed-from-max-tail under GlobalCap, deadline-aware early
	// rejection). A nil Weights field is filled from the trace's weight
	// declarations, so gold-qos-style traces get the same weights at
	// admission as at the arbiter; a nil Admission is passed through as
	// the sim's zero value (equal weights, no global cap, no early
	// rejection).
	Admission *sim.AdmissionOpts
}

// defaultArbiterPeriodUS enables the QoS arbiter for weighted DWS traces.
const defaultArbiterPeriodUS = 5000

// Prepared is a trace made ready for simulated replay: validated, every
// job's task graph built (one per distinct kernel and scale), and the
// per-tenant weights, joins and streams worked out. None of that depends
// on the machine or the policy, so a comparison prepares once and replays
// the same Prepared under every configuration. It is read-only after
// Prepare and may be replayed from several goroutines at once.
type Prepared struct {
	name     string
	tenants  []string
	weights  []float64 // per tenant: the last declared weight
	weighted bool      // some declaration is not 1
	joins    []int64   // per-tenant activation time; nil when all start at 0
	churn    error     // why a federation cannot replay the trace, or nil
	jobs     []sim.FedJob
	streams  [][]sim.Job // jobs, split by tenant
	// anchors are placeholder per-tenant graphs carrying the tenant name;
	// the replay swaps the real job graph in per job.
	anchors   []*task.Graph
	horizonUS int64
}

// Prepare validates the trace and builds everything a simulated replay
// needs that does not depend on the machine it runs on.
func Prepare(tr *Trace) (*Prepared, error) {
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	p := &Prepared{name: tr.Name, tenants: tr.Tenants()}
	n := len(p.tenants)
	idx := make(map[string]int, n)
	p.weights = make([]float64, n)
	for i, name := range p.tenants {
		idx[name] = i
		p.weights[i] = 1
		p.anchors = append(p.anchors, &task.Graph{Name: name, Root: task.Leaf(1)})
	}
	p.streams = make([][]sim.Job, n)
	joins := make([]int64, n)
	seen := make([]bool, n)
	type graphKey struct {
		kernel string
		scale  float64
	}
	graphs := map[graphKey]*task.Graph{} // graphs are read-only in the sim
	for _, e := range tr.Events {
		i := idx[e.Tenant]
		if !seen[i] && e.Op == OpJoin && e.AtUS > 0 {
			joins[i] = e.AtUS
			p.joins = joins
		}
		seen[i] = true
		if e.Weight > 0 {
			p.weights[i] = e.Weight
			p.weighted = p.weighted || e.Weight != 1
		}
		if p.churn == nil && (e.Op == OpLeave || e.Op == OpJoin && e.AtUS > 0) {
			p.churn = fmt.Errorf("scenario: trace %q has tenant %s %s at %dµs; the federation does not model churn",
				tr.Name, e.Tenant, e.Op, e.AtUS)
		}
		if e.Op != OpJob {
			continue
		}
		key := graphKey{e.Kernel, e.Scale}
		g := graphs[key]
		if g == nil {
			b, err := resolveKernel(e.Kernel)
			if err != nil {
				return nil, err
			}
			g = b.Make(e.Scale)
			graphs[key] = g
		}
		p.jobs = append(p.jobs, sim.FedJob{Tenant: i, AtUS: e.AtUS, Graph: g, DeadlineUS: e.DeadlineUS})
		p.streams[i] = append(p.streams[i], sim.Job{AtUS: e.AtUS, Graph: g, DeadlineUS: e.DeadlineUS})
	}
	last := tr.Events[len(tr.Events)-1].AtUS
	p.horizonUS = last*10 + 600_000_000 // 10× the window + 10 virtual minutes
	return p, nil
}

// machine fills the trace-derived parts of a replay's configuration: the
// weights and the QoS arbiter for weighted DWS traces, the admission
// weights when the caller left them open, and the default horizon.
func (p *Prepared) machine(cfg sim.Config, adm *sim.AdmissionOpts, horizonUS int64) (sim.Config, *sim.AdmissionOpts, int64) {
	if cfg.Policy == sim.DWS && p.weighted {
		cfg.Weights = p.weights
		if cfg.ArbiterPeriodUS <= 0 {
			cfg.ArbiterPeriodUS = defaultArbiterPeriodUS
		}
	}
	if adm != nil {
		a := *adm
		if a.Weights == nil {
			a.Weights = p.weights
		}
		adm = &a
	}
	if horizonUS <= 0 {
		horizonUS = p.horizonUS
	}
	return cfg, adm, horizonUS
}

// outcome is one job's record in the scenario Result's terms.
func (p *Prepared) outcome(tenant int, st sim.JobStatus, atUS, doneUS int64) Outcome {
	o := Outcome{Tenant: p.tenants[tenant], Status: st.String()}
	if doneUS >= 0 {
		o.LatencyMS = float64(doneUS-atUS) / 1000
	}
	return o
}

// RunSim replays the trace on the virtual clock and summarises the
// outcome. Given identical trace and options the Result is bit-for-bit
// identical across runs and hosts.
func RunSim(tr *Trace, opts SimOptions) (*Result, error) {
	p, err := Prepare(tr)
	if err != nil {
		return nil, err
	}
	return p.Sim(opts)
}

// Sim is RunSim on an already prepared trace.
func (p *Prepared) Sim(opts SimOptions) (*Result, error) {
	cfg, admission, horizon := p.machine(opts.Config, opts.Admission, opts.HorizonUS)
	m, err := sim.NewMachine(cfg, p.anchors)
	if err != nil {
		return nil, err
	}
	res, err := m.RunOpen(sim.OpenOpts{
		Jobs:      p.streams,
		JoinsUS:   p.joins,
		QueueCap:  opts.QueueCap,
		HorizonUS: horizon,
		Admission: admission,
	})
	if err != nil {
		return nil, fmt.Errorf("scenario: replaying %q under %v: %w", p.name, cfg.Policy, err)
	}

	outcomes := make([]Outcome, len(res.Jobs))
	for i, j := range res.Jobs {
		outcomes[i] = p.outcome(j.Prog, j.Status, j.AtUS, j.DoneUS)
	}
	r := Summarize(p.name, cfg.Policy.String(), "sim", outcomes, float64(res.EndTimeUS)/1000)
	// The sim tracks the locality steal split per program, not per job:
	// fold the program totals into the summary after the fact.
	row := map[string]*TenantResult{}
	for i := range r.Tenants {
		row[r.Tenants[i].Tenant] = &r.Tenants[i]
	}
	for i, pr := range res.Programs {
		tr := row[p.tenants[i]]
		if tr == nil {
			continue // tenant with no job events
		}
		tr.LocalSteals = pr.Stats.LocalSteals
		tr.RemoteSteals = pr.Stats.RemoteSteals
		r.LocalSteals += pr.Stats.LocalSteals
		r.RemoteSteals += pr.Stats.RemoteSteals
	}
	return r, nil
}

// resolveKernel looks a trace kernel reference up by ID ("p-1", "s-2")
// then by name ("FFT").
func resolveKernel(ref string) (workload.Benchmark, error) {
	if b, err := workload.ByID(ref); err == nil {
		return b, nil
	}
	b, err := workload.ByName(ref)
	if err != nil {
		return workload.Benchmark{}, fmt.Errorf("scenario: %w", err)
	}
	return b, nil
}
