// Command dwssim is the simulator's one CLI. Every mode runs on the
// machine sim.DefaultConfig() describes, changed only by the flags given.
//
// -bench co-runs any subset of the Table 2 benchmarks closed-loop under one
// policy, optionally streaming every scheduling event as one trace.Event
// JSON line to a file (- is stderr):
//
//	dwssim -bench p-1,p-8 -policy DWS
//	dwssim -bench p-6 -policy ABP -runs 6
//	dwssim -bench p-1,p-8 -policy DWS -tsleep 128 -trace events.jsonl
//
// -scenario replays a scenario trace open-loop on the virtual clock — a
// catalog name (see internal/scenario) or a .jsonl trace file — and
// with -shards fans it across simulated federated shards:
//
//	dwssim -scenario bursty-pareto -policy GO
//	dwssim -scenario trace.jsonl -cores 32
//	dwssim -scenario overload-storm -shards 3 -spill next
//
// -exp regenerates a table or figure of the paper's evaluation (§4) or one
// of this reproduction's ablations (internal/bench.Experiments lists them;
// "all" is the EXPERIMENTS.md data):
//
//	dwssim -exp fig4
//	dwssim -exp all -format csv
//
// Simulations are deterministic for a given -seed.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"dws/internal/admit"
	"dws/internal/bench"
	"dws/internal/scenario"
	"dws/internal/sim"
	"dws/internal/task"
	"dws/internal/trace"
	"dws/internal/workload"
)

// options is a parsed command line: the machine every mode runs on plus
// the per-mode settings.
type options struct {
	cfg    sim.Config
	stderr io.Writer // where -trace - streams

	benchIDs string
	runs     int
	scale    float64
	traceOut string
	timeline bool
	dot      bool

	scenario string
	shards   int
	spill    admit.SpillPolicy

	exps   []bench.Experiment
	render func(*bench.Table, io.Writer) error
}

// parse turns the command line into options, refusing anything it can
// tell is wrong before a simulation starts.
func parse(args []string, stderr io.Writer) (*options, error) {
	fs := flag.NewFlagSet("dwssim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	def := sim.DefaultConfig()
	var (
		benchIDs  = fs.String("bench", "p-1,p-8", "comma-separated Table 2 IDs (p-1..p-8)")
		policy    = fs.String("policy", def.Policy.String(), "ABP|EP|DWS|DWS-NC|GO")
		scenName  = fs.String("scenario", "", "replay a catalog scenario or a .jsonl trace file open-loop instead of -bench")
		shardsN   = fs.Int("shards", 0, "scenario mode: fan the trace across K simulated federated shards (0 = single machine)")
		spillName = fs.String("spill", "next", "federated scenario mode: spill policy on shard refusal (none|random|next)")
		expName   = fs.String("exp", "", "print an experiment table instead of -bench: all|"+strings.Join(bench.ExperimentNames(), "|"))
		format    = fs.String("format", "text", "-exp output format: text|csv|json")
		runs      = fs.Int("runs", 4, "completed runs per program")
		scale     = fs.Float64("scale", 1.0, "workload scale factor")
		traceOut  = fs.String("trace", "", "stream scheduling events as JSONL to this file (- = stderr)")
		timeline  = fs.Bool("timeline", false, "print an ASCII core-occupancy timeline")
		dot       = fs.Bool("dot", false, "dump the benchmark task graphs as Graphviz DOT and exit")

		cores   = fs.Int("cores", def.Cores, "cores")
		sockets = fs.Int("socket", def.SocketSize, "cores per socket")
		tsleep  = fs.Int("tsleep", def.TSleep, "T_SLEEP (0 = cores)")
		coord   = fs.Int64("coord", def.CoordPeriodUS, "coordinator period T (µs)")
		seed    = fs.Int64("seed", def.Seed, "seed")
	)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}

	o := &options{
		cfg:      def,
		stderr:   stderr,
		benchIDs: *benchIDs, runs: *runs, scale: *scale,
		traceOut: *traceOut, timeline: *timeline, dot: *dot,
		scenario: *scenName, shards: *shardsN,
	}
	o.cfg.Cores, o.cfg.SocketSize = *cores, *sockets
	o.cfg.TSleep, o.cfg.CoordPeriodUS, o.cfg.Seed = *tsleep, *coord, *seed
	var err error
	if o.cfg.Policy, err = sim.ParsePolicy(*policy); err != nil {
		return nil, err
	}
	if o.spill, err = admit.ParseSpillPolicy(*spillName); err != nil {
		return nil, err
	}
	if *expName != "" {
		if o.scenario != "" {
			return nil, fmt.Errorf("-exp and -scenario are mutually exclusive")
		}
		if o.exps, err = bench.Select(*expName); err != nil {
			return nil, err
		}
		if o.render, err = bench.Renderer(*format); err != nil {
			return nil, err
		}
	}
	return o, nil
}

func main() {
	o, err := parse(os.Args[1:], os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err == nil {
		err = o.run(os.Stdout)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "dwssim: %v\n", err)
		os.Exit(1)
	}
}

// run does the one thing the command line selected.
func (o *options) run(w io.Writer) error {
	switch {
	case o.exps != nil:
		return o.runExperiments(w)
	case o.scenario != "":
		return o.runScenario(w)
	default:
		return o.runBench(w)
	}
}

// runExperiments prints the selected experiment tables in table order.
func (o *options) runExperiments(w io.Writer) error {
	opts := bench.Options{Cfg: o.cfg, Scale: o.scale, TargetRuns: o.runs}
	for _, e := range o.exps {
		t, err := e.Run(opts)
		if err != nil {
			return err
		}
		if err := o.render(t, w); err != nil {
			return err
		}
	}
	return nil
}

// runScenario replays a scenario trace through the open-loop simulator —
// one machine, or -shards federated ones under the -spill policy (the
// virtual-clock preview of a dwsrouter deployment) — and prints the
// per-tenant report, plus the spill ledger when shards spilled.
func (o *options) runScenario(w io.Writer) error {
	tr, err := scenario.Load(o.scenario, 0)
	if err != nil {
		return err
	}
	if o.shards <= 0 {
		res, err := scenario.RunSim(tr, scenario.SimOptions{Config: o.cfg})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s\n\n%s", res, res.Table())
		return nil
	}
	fr, err := scenario.RunFedSim(tr, scenario.FedSimOptions{
		Config: o.cfg,
		Shards: o.shards,
		Spill:  o.spill,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n\n%s", fr.Result, fr.Result.Table())
	if len(fr.Fed.Spills) > 0 {
		fmt.Fprintln(w, "\nspills (from -> to):")
		for _, sp := range fr.Fed.Spills {
			fmt.Fprintf(w, "  s%d -> s%d  %-6s %d\n", sp.From, sp.To, sp.Reason, sp.Count)
		}
	}
	return nil
}

// runBench co-runs the -bench graphs closed-loop under the one policy and
// prints the run summary and each program's counters.
func (o *options) runBench(w io.Writer) error {
	var graphs []*task.Graph
	for _, id := range strings.Split(o.benchIDs, ",") {
		b, err := workload.ByID(strings.TrimSpace(id))
		if err != nil {
			return err
		}
		graphs = append(graphs, b.Make(o.scale))
	}

	if o.dot {
		for _, g := range graphs {
			if err := task.WriteDOT(w, g); err != nil {
				return err
			}
		}
		return nil
	}

	m, err := sim.NewMachine(o.cfg, graphs)
	if err != nil {
		return err
	}
	var traceErr error
	if o.traceOut != "" {
		out := o.stderr
		if o.traceOut != "-" {
			f, err := os.Create(o.traceOut)
			if err != nil {
				return err
			}
			defer f.Close()
			out = f
		}
		enc := json.NewEncoder(out)
		m.Observe = func(ev trace.Event) {
			if traceErr == nil {
				traceErr = enc.Encode(ev)
			}
		}
	}
	runOpts := sim.RunOpts{TargetRuns: o.runs}
	if o.timeline {
		runOpts.SampleUS = 2000
	}
	start := time.Now()
	res, err := m.Run(runOpts)
	if err != nil {
		return err
	}
	if traceErr != nil {
		return fmt.Errorf("-trace: %w", traceErr)
	}
	fmt.Fprintln(w, summaryLine(o.cfg.Policy, o.cfg.Cores, o.cfg.Seed, res, time.Since(start)))
	if o.timeline {
		fmt.Fprint(w, res.TimelineASCII(100))
	}
	for _, p := range res.Programs {
		st := p.Stats
		fmt.Fprintf(w, "%-10s runs=%d mean=%.1fms steals=%d failed=%d sleeps=%d wakes=%d evict=%d claims=%d reclaims=%d spin=%.1fms\n",
			p.Name, p.Runs(), p.MeanRunUS()/1000,
			st.Steals, st.FailedSteals, st.Sleeps, st.Wakes, st.Evictions,
			st.Claims, st.Reclaims, float64(st.SpinUS)/1000)
	}
	return nil
}

// summaryLine formats the one-line run summary printed after -bench runs:
// what was simulated, and how fast the simulator got through it.
func summaryLine(pol sim.Policy, cores int, seed int64, res *sim.Results, wall time.Duration) string {
	return fmt.Sprintf("policy=%v cores=%d seed=%d simulated=%.3fs events=%d util=%.2f wall=%.3fs events/s=%.0f",
		pol, cores, seed, float64(res.EndTimeUS)/1e6, res.Events, res.Utilization(),
		wall.Seconds(), float64(res.Events)/wall.Seconds())
}
