package bench

import (
	"fmt"
	"strings"

	"dws/internal/sim"
	"dws/internal/stats"
	"dws/internal/task"
	"dws/internal/workload"
)

// Experiment is one row of the experiment table: the name `dwssim -exp`
// selects it by, what it measures, and the run that renders it.
type Experiment struct {
	Name, Doc string
	Run       func(Options) (*Table, error)
}

// Experiments is every simulator experiment, in the order `-exp all`
// prints them (the EXPERIMENTS.md data).
var Experiments = []Experiment{
	{"table2", "Table 2: benchmark registry", func(Options) (*Table, error) { return Table2(), nil }},
	{"fig4", "Fig. 4: mixes under ABP / EP / DWS", tabled(Fig4, Fig4Table)},
	{"fig5", "Fig. 5: DWS-NC vs DWS", tabled(Fig5, Fig5Table)},
	{"fig6", "Fig. 6: T_SLEEP sweep on mix (1,8)", tabled(Fig6, Fig6Table)},
	{"solo", "§4.4: solo overhead of DWS", tabled(SoloOverhead, SoloOverheadTable)},
	{"coordperiod", "§3.4: coordinator period sweep", tabled(CoordPeriod, CoordPeriodTable)},
	{"yield", "ablation: weak vs strong ABP yield", tabled(YieldAblation, YieldAblationTable)},
	{"scalem", "extension: m = 2, 3, 4 co-running programs", tabled(ScaleM, ScaleMTable)},
	{"sensitivity", "machine-model sensitivity of the DWS gain", named(Sensitivity, SensitivityTable)},
	{"variance", "mix (1,8) across seeds, mean ± CI", named(func(o Options) ([]VarianceRow, [2]string, error) {
		return Variance(o, nil)
	}, VarianceTable)},
	{"elastic", "extension: a program arrives mid-run", named(Elasticity, ElasticityTable)},
	{"sharing", "extension (§4.4): DWS on a work-sharing runtime", tabled(Sharing, SharingTable)},
}

// tabled joins a measurement and its renderer into an Experiment.Run.
func tabled[R any](measure func(Options) (R, error), render func(R) *Table) func(Options) (*Table, error) {
	return func(o Options) (*Table, error) {
		r, err := measure(o)
		if err != nil {
			return nil, err
		}
		return render(r), nil
	}
}

// named is tabled for the measurements that also return the two program
// names their renderer titles the columns with.
func named[R any](measure func(Options) (R, [2]string, error), render func(R, [2]string) *Table) func(Options) (*Table, error) {
	return func(o Options) (*Table, error) {
		r, names, err := measure(o)
		if err != nil {
			return nil, err
		}
		return render(r, names), nil
	}
}

// Select resolves an -exp argument: "all" is the whole table in order, any
// other name (case-insensitive) the one experiment so called.
func Select(name string) ([]Experiment, error) {
	if strings.EqualFold(name, "all") {
		return Experiments, nil
	}
	for i, e := range Experiments {
		if strings.EqualFold(name, e.Name) {
			return Experiments[i : i+1], nil
		}
	}
	return nil, fmt.Errorf("bench: unknown experiment %q (have all, %s)", name, strings.Join(ExperimentNames(), ", "))
}

// ExperimentNames lists the experiment names in table order.
func ExperimentNames() []string {
	names := make([]string, len(Experiments))
	for i, e := range Experiments {
		names[i] = e.Name
	}
	return names
}

// Table2 renders the benchmark registry (the paper's Table 2).
func Table2() *Table {
	t := &Table{
		Title:  "Table 2: Benchmarks used in the experiments",
		Header: []string{"ID", "Name", "Description"},
	}
	for _, b := range workload.Registry {
		t.Rows = append(t.Rows, []string{b.ID, b.Name, b.Desc})
	}
	return t
}

// MixOutcome holds one benchmark mix measured under a set of policies.
type MixOutcome struct {
	Mix      Mix
	Names    [2]string
	SoloUS   [2]float64                // solo baseline (plain WS, all cores)
	MeanUS   map[sim.Policy][2]float64 // per-policy mean run times
	StatsFor map[sim.Policy][2]sim.ProgStats
}

// Norm returns the policy's normalised execution time for program i
// (co-run time / solo baseline; the paper's Fig. 4 y-axis).
func (o *MixOutcome) Norm(pol sim.Policy, i int) float64 {
	return stats.Normalize(o.MeanUS[pol][i], o.SoloUS[i])
}

// RunMixes measures every mix under every policy, sharing solo baselines.
func RunMixes(opts Options, mixes []Mix, policies []sim.Policy) ([]MixOutcome, error) {
	opts.normalize()
	solos := map[int]float64{}
	solo := func(id int, g *task.Graph) (float64, error) {
		if v, ok := solos[id]; ok {
			return v, nil
		}
		v, err := Solo(opts, sim.ABP, g)
		if err != nil {
			return 0, err
		}
		solos[id] = v
		return v, nil
	}

	var out []MixOutcome
	for _, mix := range mixes {
		a, b, err := mix.Graphs(opts.Scale)
		if err != nil {
			return nil, err
		}
		o := MixOutcome{
			Mix:      mix,
			Names:    [2]string{a.Name, b.Name},
			MeanUS:   map[sim.Policy][2]float64{},
			StatsFor: map[sim.Policy][2]sim.ProgStats{},
		}
		if o.SoloUS[0], err = solo(mix.I, a); err != nil {
			return nil, err
		}
		if o.SoloUS[1], err = solo(mix.J, b); err != nil {
			return nil, err
		}
		for _, pol := range policies {
			r, err := RunMix(opts, pol, a, b)
			if err != nil {
				return nil, err
			}
			o.MeanUS[pol] = r.MeanUS
			o.StatsFor[pol] = [2]sim.ProgStats{
				r.Results.Programs[0].Stats, r.Results.Programs[1].Stats,
			}
		}
		out = append(out, o)
	}
	return out, nil
}

// Fig4 reproduces Fig. 4: execution time of the benchmark mixes under ABP,
// EP and DWS, normalised to each benchmark's solo baseline.
func Fig4(opts Options) ([]MixOutcome, error) {
	return RunMixes(opts, DefaultMixes, []sim.Policy{sim.ABP, sim.EP, sim.DWS})
}

// Fig4Table renders Fig. 4 outcomes, including the paper's headline
// statistic (max execution-time reduction of DWS vs ABP and vs EP).
func Fig4Table(outcomes []MixOutcome) *Table {
	t := &Table{
		Title: "Fig 4: normalised execution time of benchmark mixes (ABP / EP / DWS)",
		Header: []string{"mix", "bench", "solo(ms)",
			"ABP", "EP", "DWS"},
	}
	maxVsABP, maxVsEP := 0.0, 0.0
	for _, o := range outcomes {
		for i := 0; i < 2; i++ {
			t.Rows = append(t.Rows, []string{
				o.Mix.String(), o.Names[i], ms(o.SoloUS[i]),
				ratio(o.Norm(sim.ABP, i)), ratio(o.Norm(sim.EP, i)), ratio(o.Norm(sim.DWS, i)),
			})
			if g := stats.Improvement(o.MeanUS[sim.ABP][i], o.MeanUS[sim.DWS][i]); g > maxVsABP {
				maxVsABP = g
			}
			if g := stats.Improvement(o.MeanUS[sim.EP][i], o.MeanUS[sim.DWS][i]); g > maxVsEP {
				maxVsEP = g
			}
		}
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("max execution-time reduction of DWS vs ABP: %.1f%% (paper: up to 32.3%%)", 100*maxVsABP),
		fmt.Sprintf("max execution-time reduction of DWS vs EP:  %.1f%% (paper: up to 37.1%%)", 100*maxVsEP),
	)
	for _, pol := range []sim.Policy{sim.ABP, sim.EP, sim.DWS} {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"balance under %v: mean Jain fairness of per-mix slowdowns = %.3f (1 = perfectly balanced)",
			pol, meanFairness(outcomes, pol)))
	}
	return t
}

// meanFairness averages Jain's fairness index of the two programs'
// normalised slowdowns over the mixes — the paper's "balanced
// performance" goal, quantified.
func meanFairness(outcomes []MixOutcome, pol sim.Policy) float64 {
	var xs []float64
	for _, o := range outcomes {
		xs = append(xs, stats.JainIndex([]float64{o.Norm(pol, 0), o.Norm(pol, 1)}))
	}
	return stats.Mean(xs)
}

// Fig5 reproduces Fig. 5: the same mixes under DWS-NC vs DWS (the
// coordinator-effectiveness ablation, §4.2).
func Fig5(opts Options) ([]MixOutcome, error) {
	return RunMixes(opts, DefaultMixes, []sim.Policy{sim.DWSNC, sim.DWS})
}

// Fig5Table renders Fig. 5 outcomes.
func Fig5Table(outcomes []MixOutcome) *Table {
	t := &Table{
		Title:  "Fig 5: normalised execution time of benchmark mixes (DWS-NC vs DWS)",
		Header: []string{"mix", "bench", "solo(ms)", "DWS-NC", "DWS"},
	}
	worse := 0
	total := 0
	for _, o := range outcomes {
		for i := 0; i < 2; i++ {
			t.Rows = append(t.Rows, []string{
				o.Mix.String(), o.Names[i], ms(o.SoloUS[i]),
				ratio(o.Norm(sim.DWSNC, i)), ratio(o.Norm(sim.DWS, i)),
			})
			total++
			if o.MeanUS[sim.DWSNC][i] > o.MeanUS[sim.DWS][i] {
				worse++
			}
		}
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"DWS-NC slower than DWS on %d of %d program instances (paper: DWS-NC performs worse than DWS)",
		worse, total))
	return t
}

// Fig6Row is one T_SLEEP setting of the Fig. 6 sweep.
type Fig6Row struct {
	TSleep int
	MeanUS [2]float64
}

// Fig6 reproduces Fig. 6: performance of mix (1,8) under DWS with
// T_SLEEP ∈ {1,2,4,8,16,32,64,128}.
func Fig6(opts Options) ([]Fig6Row, error) {
	opts.normalize()
	a, b, err := Mix{1, 8}.Graphs(opts.Scale)
	if err != nil {
		return nil, err
	}
	var rows []Fig6Row
	for _, ts := range []int{1, 2, 4, 8, 16, 32, 64, 128} {
		o := opts
		o.Cfg.TSleep = ts
		r, err := RunMix(o, sim.DWS, a, b)
		if err != nil {
			return nil, fmt.Errorf("T_SLEEP=%d: %w", ts, err)
		}
		rows = append(rows, Fig6Row{TSleep: ts, MeanUS: r.MeanUS})
	}
	return rows, nil
}

// Fig6Table renders the T_SLEEP sweep.
func Fig6Table(rows []Fig6Row) *Table {
	t := &Table{
		Title:  "Fig 6: mix (1,8) under DWS with varying T_SLEEP",
		Header: []string{"T_SLEEP", "FFT(ms)", "Mergesort(ms)"},
	}
	best, bestSum := 0, 0.0
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", r.TSleep), ms(r.MeanUS[0]), ms(r.MeanUS[1]),
		})
		sum := r.MeanUS[0] + r.MeanUS[1]
		if best == 0 || sum < bestSum {
			best, bestSum = r.TSleep, sum
		}
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"best combined time at T_SLEEP=%d (paper: best at 16 or 32 on a 16-core machine, i.e. k or 2k)", best))
	return t
}

// SoloRow is one benchmark of the §4.4 solo-overhead check.
type SoloRow struct {
	Bench   workload.Benchmark
	PlainUS float64 // traditional work-stealing, alone
	DWSUS   float64 // DWS, alone
}

// SoloOverhead reproduces the §4.4 claim: DWS does not degrade a single
// work-stealing program running alone.
func SoloOverhead(opts Options) ([]SoloRow, error) {
	opts.normalize()
	var rows []SoloRow
	for _, b := range workload.Registry {
		g := b.Make(opts.Scale)
		plain, err := Solo(opts, sim.ABP, g)
		if err != nil {
			return nil, err
		}
		dws, err := Solo(opts, sim.DWS, g)
		if err != nil {
			return nil, err
		}
		rows = append(rows, SoloRow{Bench: b, PlainUS: plain, DWSUS: dws})
	}
	return rows, nil
}

// SoloOverheadTable renders the solo-overhead comparison.
func SoloOverheadTable(rows []SoloRow) *Table {
	t := &Table{
		Title:  "§4.4: solo execution — traditional work-stealing vs DWS",
		Header: []string{"bench", "plain WS (ms)", "DWS (ms)", "DWS/plain"},
	}
	worst := 0.0
	for _, r := range rows {
		rel := r.DWSUS / r.PlainUS
		if rel > worst {
			worst = rel
		}
		t.Rows = append(t.Rows, []string{
			r.Bench.Name, ms(r.PlainUS), ms(r.DWSUS), ratio(rel),
		})
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"worst DWS/plain ratio: %.2fx (paper: DWS does not degrade a solo program; overhead negligible)", worst))
	return t
}

// CoordRow is one coordinator-period setting of the §3.4 ablation.
type CoordRow struct {
	PeriodUS int64
	MeanUS   [2]float64
}

// CoordPeriod sweeps the coordinator period T on mix (1,8) (§3.4 argues
// T too small wastes cycles, T too large reacts slowly; suggests 10 ms).
func CoordPeriod(opts Options) ([]CoordRow, error) {
	opts.normalize()
	a, b, err := Mix{1, 8}.Graphs(opts.Scale)
	if err != nil {
		return nil, err
	}
	var rows []CoordRow
	for _, period := range []int64{1000, 5000, 10000, 50000, 100000} {
		o := opts
		o.Cfg.CoordPeriodUS = period
		r, err := RunMix(o, sim.DWS, a, b)
		if err != nil {
			return nil, fmt.Errorf("T=%dµs: %w", period, err)
		}
		rows = append(rows, CoordRow{PeriodUS: period, MeanUS: r.MeanUS})
	}
	return rows, nil
}

// CoordPeriodTable renders the coordinator-period ablation.
func CoordPeriodTable(rows []CoordRow) *Table {
	t := &Table{
		Title:  "§3.4 ablation: coordinator period T on mix (1,8) under DWS",
		Header: []string{"T (ms)", "FFT(ms)", "Mergesort(ms)"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.0f", float64(r.PeriodUS)/1000), ms(r.MeanUS[0]), ms(r.MeanUS[1]),
		})
	}
	t.Notes = append(t.Notes, "paper suggests T = 10 ms")
	return t
}

// YieldRow compares the two ABP yield interpretations on one mix.
type YieldRow struct {
	Mix      Mix
	WeakUS   [2]float64
	StrongUS [2]float64
}

// YieldAblation contrasts weak (CFS-reality) and strong (idealised) ABP
// yielding — the modelling decision DESIGN.md documents.
func YieldAblation(opts Options) ([]YieldRow, error) {
	opts.normalize()
	var rows []YieldRow
	for _, mix := range []Mix{{1, 8}, {2, 7}} {
		a, b, err := mix.Graphs(opts.Scale)
		if err != nil {
			return nil, err
		}
		weak, err := RunMix(opts, sim.ABP, a, b)
		if err != nil {
			return nil, err
		}
		o := opts
		o.Cfg.StrongYield = true
		strong, err := RunMix(o, sim.ABP, a, b)
		if err != nil {
			return nil, err
		}
		rows = append(rows, YieldRow{Mix: mix, WeakUS: weak.MeanUS, StrongUS: strong.MeanUS})
	}
	return rows, nil
}

// YieldAblationTable renders the yield ablation.
func YieldAblationTable(rows []YieldRow) *Table {
	t := &Table{
		Title:  "ablation: ABP with weak (CFS-like) vs strong (idealised) yield",
		Header: []string{"mix", "weak A(ms)", "weak B(ms)", "strong A(ms)", "strong B(ms)"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Mix.String(), ms(r.WeakUS[0]), ms(r.WeakUS[1]), ms(r.StrongUS[0]), ms(r.StrongUS[1]),
		})
	}
	return t
}
