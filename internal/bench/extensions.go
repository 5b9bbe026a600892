package bench

import (
	"fmt"

	"dws/internal/sim"
	"dws/internal/stats"
	"dws/internal/task"
	"dws/internal/workload"
)

// Extension experiments beyond the paper's evaluation: scaling the number
// of co-running programs, seed variance, elasticity and the §4.4
// work-sharing adaptation.

// ScaleRow is one program-count setting of the m-sweep.
type ScaleRow struct {
	M     int
	Names []string
	// NormFor[policy][i] is program i's normalised execution time.
	NormFor map[sim.Policy][]float64
}

// scaleMixIDs are the benchmarks co-run in the m-sweep, in launch order.
var scaleMixIDs = []string{"p-1", "p-8", "p-7", "p-3"}

// ScaleM co-runs m = 2, 3, 4 programs under ABP, EP and DWS — the paper
// evaluates only pairs; the design claims to generalise to any m.
func ScaleM(opts Options) ([]ScaleRow, error) {
	opts.normalize()
	var rows []ScaleRow
	for m := 2; m <= 4; m++ {
		var graphs []*task.Graph
		var names []string
		for _, id := range scaleMixIDs[:m] {
			b, err := workload.ByID(id)
			if err != nil {
				return nil, err
			}
			graphs = append(graphs, b.Make(opts.Scale))
			names = append(names, b.Name)
		}
		row := ScaleRow{M: m, Names: names, NormFor: map[sim.Policy][]float64{}}
		solos := make([]float64, m)
		for i, g := range graphs {
			v, err := Solo(opts, sim.ABP, g)
			if err != nil {
				return nil, err
			}
			solos[i] = v
		}
		for _, pol := range []sim.Policy{sim.ABP, sim.EP, sim.DWS} {
			cfg := opts.Cfg
			cfg.Policy = pol
			machine, err := sim.NewMachine(cfg, graphs)
			if err != nil {
				return nil, err
			}
			res, err := machine.Run(sim.RunOpts{
				TargetRuns: opts.TargetRuns, HorizonUS: opts.horizon(graphs...),
			})
			if err != nil {
				return nil, fmt.Errorf("m=%d %v: %w", m, pol, err)
			}
			norms := make([]float64, m)
			for i := range norms {
				norms[i] = stats.Normalize(res.Programs[i].MeanRunUS(), solos[i])
			}
			row.NormFor[pol] = norms
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// ScaleMTable renders the m-sweep with per-policy geometric means.
func ScaleMTable(rows []ScaleRow) *Table {
	t := &Table{
		Title:  "extension: m co-running programs (normalised, geomean per policy)",
		Header: []string{"m", "benchmarks", "ABP", "EP", "DWS"},
	}
	for _, r := range rows {
		cells := []string{fmt.Sprintf("%d", r.M), join(r.Names)}
		for _, pol := range []sim.Policy{sim.ABP, sim.EP, sim.DWS} {
			cells = append(cells, ratio(stats.GeoMean(r.NormFor[pol])))
		}
		t.Rows = append(t.Rows, cells)
	}
	t.Notes = append(t.Notes, "ideal slowdown at m programs is ≈ m× each; lower is better")
	return t
}

func join(names []string) string {
	s := ""
	for i, n := range names {
		if i > 0 {
			s += "+"
		}
		s += n
	}
	return s
}

// VarianceRow summarises one policy's headline mix across seeds.
type VarianceRow struct {
	Policy sim.Policy
	// A and B summarise each program's mean run time across seeds.
	A, B stats.Summary
}

// Variance re-runs mix (1,8) across several seeds per policy, reporting
// mean ± CI of each program's run time — evidence the reported shapes are
// not artefacts of one schedule.
func Variance(opts Options, seeds []int64) ([]VarianceRow, [2]string, error) {
	opts.normalize()
	if len(seeds) == 0 {
		seeds = []int64{1, 2, 3, 4, 5}
	}
	a, b, err := Mix{1, 8}.Graphs(opts.Scale)
	if err != nil {
		return nil, [2]string{}, err
	}
	names := [2]string{a.Name, b.Name}
	var rows []VarianceRow
	for _, pol := range []sim.Policy{sim.ABP, sim.EP, sim.DWS} {
		var as, bs []float64
		for _, seed := range seeds {
			o := opts
			o.Cfg.Seed = seed
			r, err := RunMix(o, pol, a, b)
			if err != nil {
				return nil, names, fmt.Errorf("variance %v seed %d: %w", pol, seed, err)
			}
			as = append(as, r.MeanUS[0])
			bs = append(bs, r.MeanUS[1])
		}
		rows = append(rows, VarianceRow{
			Policy: pol, A: stats.Summarize(as), B: stats.Summarize(bs),
		})
	}
	return rows, names, nil
}

// VarianceTable renders the seed-variance study.
func VarianceTable(rows []VarianceRow, names [2]string) *Table {
	t := &Table{
		Title: "robustness: mix (1,8) across seeds (mean ± 95% CI, ms)",
		Header: []string{"policy",
			names[0] + " mean", names[0] + " ±CI",
			names[1] + " mean", names[1] + " ±CI"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Policy.String(),
			ms(r.A.Mean), ms(r.A.CI95()),
			ms(r.B.Mean), ms(r.B.CI95()),
		})
	}
	return t
}

// ElasticityRow is one policy of the staggered-arrival experiment.
type ElasticityRow struct {
	Policy sim.Policy
	// BeforeUS/AfterUS are program A's mean run times before and after
	// program B arrives; LateUS is program B's mean run time.
	BeforeUS, AfterUS, LateUS float64
}

// Elasticity launches FFT alone and lets Mergesort arrive midway: an
// elastic scheduler gives FFT the whole machine while it is alone and a
// fair share afterwards. The paper's DWS is elastic by construction
// (released cores are claimable, home cores reclaimable); EP's static
// reservation is the anti-pattern.
func Elasticity(opts Options) ([]ElasticityRow, [2]string, error) {
	opts.normalize()
	a, b, err := Mix{1, 8}.Graphs(opts.Scale)
	if err != nil {
		return nil, [2]string{}, err
	}
	names := [2]string{a.Name, b.Name}
	soloA, err := Solo(opts, sim.ABP, a)
	if err != nil {
		return nil, names, err
	}
	arrival := int64(2.5 * soloA)

	var rows []ElasticityRow
	for _, pol := range []sim.Policy{sim.ABP, sim.EP, sim.DWS} {
		cfg := opts.Cfg
		cfg.Policy = pol
		m, err := sim.NewMachine(cfg, []*task.Graph{a, b})
		if err != nil {
			return nil, names, err
		}
		res, err := m.Run(sim.RunOpts{
			TargetRuns: opts.TargetRuns + 2,
			HorizonUS:  4 * opts.horizon(a, b),
			ArrivalsUS: []int64{0, arrival},
		})
		if err != nil {
			return nil, names, fmt.Errorf("elasticity %v: %w", pol, err)
		}
		st := res.Programs[0].Stats
		var before, after []float64
		for i, start := range st.RunStartsUS {
			switch {
			case start+st.RunTimesUS[i] <= arrival:
				before = append(before, float64(st.RunTimesUS[i]))
			case start >= arrival:
				after = append(after, float64(st.RunTimesUS[i]))
			}
		}
		rows = append(rows, ElasticityRow{
			Policy:   pol,
			BeforeUS: stats.Mean(before),
			AfterUS:  stats.Mean(after),
			LateUS:   res.Programs[1].MeanRunUS(),
		})
	}
	return rows, names, nil
}

// ElasticityTable renders the staggered-arrival experiment.
func ElasticityTable(rows []ElasticityRow, names [2]string) *Table {
	t := &Table{
		Title: fmt.Sprintf("extension: elasticity — %s alone, then %s arrives", names[0], names[1]),
		Header: []string{"policy", names[0] + " alone (ms)", names[0] + " co-run (ms)",
			names[1] + " (ms)"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Policy.String(), ms(r.BeforeUS), ms(r.AfterUS), ms(r.LateUS),
		})
	}
	t.Notes = append(t.Notes,
		"an elastic scheduler runs at solo speed in the 'alone' phase; EP's reserved partition cannot")
	return t
}

// SharingRow is one mix of the work-sharing adaptation experiment.
type SharingRow struct {
	Mix   Mix
	Names [2]string
	ABPUS [2]float64
	DWSUS [2]float64
}

// Sharing validates §4.4's generality claim: with every program switched
// from work-stealing to a central work-sharing pool, the DWS sleep/wake +
// coordinator mechanisms still beat the ABP-style baseline.
func Sharing(opts Options) ([]SharingRow, error) {
	opts.normalize()
	opts.Cfg.WorkSharing = true
	var rows []SharingRow
	for _, mix := range []Mix{{1, 8}, {2, 7}, {3, 8}} {
		a, b, err := mix.Graphs(opts.Scale)
		if err != nil {
			return nil, err
		}
		abp, err := RunMix(opts, sim.ABP, a, b)
		if err != nil {
			return nil, err
		}
		dws, err := RunMix(opts, sim.DWS, a, b)
		if err != nil {
			return nil, err
		}
		rows = append(rows, SharingRow{
			Mix: mix, Names: [2]string{a.Name, b.Name},
			ABPUS: abp.MeanUS, DWSUS: dws.MeanUS,
		})
	}
	return rows, nil
}

// SharingTable renders the work-sharing adaptation results.
func SharingTable(rows []SharingRow) *Table {
	t := &Table{
		Title: "extension (§4.4): DWS mechanisms on a work-sharing runtime",
		Header: []string{"mix", "benchmarks", "sharing+ABP (ms)", "sharing+DWS (ms)",
			"gain A", "gain B"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Mix.String(), r.Names[0] + "+" + r.Names[1],
			ms(r.ABPUS[0]) + " / " + ms(r.ABPUS[1]),
			ms(r.DWSUS[0]) + " / " + ms(r.DWSUS[1]),
			fmt.Sprintf("%.0f%%", 100*stats.Improvement(r.ABPUS[0], r.DWSUS[0])),
			fmt.Sprintf("%.0f%%", 100*stats.Improvement(r.ABPUS[1], r.DWSUS[1])),
		})
	}
	t.Notes = append(t.Notes,
		"all programs use one central FIFO task pool instead of per-worker deques; sleep/wake and the coordinator are unchanged")
	return t
}
