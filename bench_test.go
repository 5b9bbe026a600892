// Benchmarks regenerating the paper's tables and figures — one testing.B
// benchmark per table/figure, each reporting the headline statistic of
// its experiment as a custom metric. Run with:
//
//	go test -bench=. -benchmem
//
// Workloads run at reduced scale here so a full -bench=. pass stays
// quick; `dwssim -exp all` regenerates the full-scale numbers recorded
// in EXPERIMENTS.md.
package dws_test

import (
	"testing"

	"dws/internal/bench"
	"dws/internal/kernels"
	"dws/internal/rt"
	"dws/internal/sim"
	"dws/internal/stats"
)

// benchOptions returns reduced-scale options keyed off the -benchtime
// budget.
func benchOptions() bench.Options {
	opts := bench.DefaultOptions()
	opts.Scale = 0.5
	opts.TargetRuns = 3
	return opts
}

// BenchmarkTable2 renders the benchmark registry (Table 2).
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tb := bench.Table2(); len(tb.Rows) != 8 {
			b.Fatal("registry incomplete")
		}
	}
}

// BenchmarkFig4 reproduces Fig. 4 (mixes under ABP / EP / DWS) and
// reports DWS's maximum execution-time reduction vs both baselines.
func BenchmarkFig4(b *testing.B) {
	opts := benchOptions()
	var vsABP, vsEP float64
	for i := 0; i < b.N; i++ {
		outcomes, err := bench.Fig4(opts)
		if err != nil {
			b.Fatal(err)
		}
		vsABP, vsEP = 0, 0
		for _, o := range outcomes {
			for p := 0; p < 2; p++ {
				if g := stats.Improvement(o.MeanUS[sim.ABP][p], o.MeanUS[sim.DWS][p]); g > vsABP {
					vsABP = g
				}
				if g := stats.Improvement(o.MeanUS[sim.EP][p], o.MeanUS[sim.DWS][p]); g > vsEP {
					vsEP = g
				}
			}
		}
	}
	b.ReportMetric(100*vsABP, "maxgain_vs_ABP_%")
	b.ReportMetric(100*vsEP, "maxgain_vs_EP_%")
}

// BenchmarkFig5 reproduces Fig. 5 (DWS-NC vs DWS) and reports the share
// of program instances where the coordinator helps.
func BenchmarkFig5(b *testing.B) {
	opts := benchOptions()
	var frac float64
	for i := 0; i < b.N; i++ {
		outcomes, err := bench.Fig5(opts)
		if err != nil {
			b.Fatal(err)
		}
		worse, total := 0, 0
		for _, o := range outcomes {
			for p := 0; p < 2; p++ {
				total++
				if o.MeanUS[sim.DWSNC][p] > o.MeanUS[sim.DWS][p] {
					worse++
				}
			}
		}
		frac = float64(worse) / float64(total)
	}
	b.ReportMetric(100*frac, "DWSNC_worse_%")
}

// BenchmarkFig6 reproduces Fig. 6 (T_SLEEP sweep on mix (1,8)) and
// reports the best T_SLEEP found.
func BenchmarkFig6(b *testing.B) {
	opts := benchOptions()
	var best float64
	for i := 0; i < b.N; i++ {
		rows, err := bench.Fig6(opts)
		if err != nil {
			b.Fatal(err)
		}
		bestSum := 0.0
		for _, r := range rows {
			sum := r.MeanUS[0] + r.MeanUS[1]
			if bestSum == 0 || sum < bestSum {
				bestSum = sum
				best = float64(r.TSleep)
			}
		}
	}
	b.ReportMetric(best, "best_T_SLEEP")
}

// BenchmarkSoloOverhead reproduces the §4.4 check and reports the worst
// DWS/plain ratio across the eight benchmarks.
func BenchmarkSoloOverhead(b *testing.B) {
	opts := benchOptions()
	var worst float64
	for i := 0; i < b.N; i++ {
		rows, err := bench.SoloOverhead(opts)
		if err != nil {
			b.Fatal(err)
		}
		worst = 0
		for _, r := range rows {
			if rel := r.DWSUS / r.PlainUS; rel > worst {
				worst = rel
			}
		}
	}
	b.ReportMetric(worst, "worst_DWS/plain")
}

// BenchmarkCoordPeriod reproduces the §3.4 coordinator-period ablation.
func BenchmarkCoordPeriod(b *testing.B) {
	opts := benchOptions()
	for i := 0; i < b.N; i++ {
		if _, err := bench.CoordPeriod(opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkYieldAblation contrasts weak and strong ABP yields.
func BenchmarkYieldAblation(b *testing.B) {
	opts := benchOptions()
	opts.Scale = 0.3
	for i := 0; i < b.N; i++ {
		if _, err := bench.YieldAblation(opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLiveMix co-runs two real kernels on the live runtime (the
// mechanics validation; wall-clock policy differences require a
// multi-core host).
func BenchmarkLiveMix(b *testing.B) {
	fft, _ := kernels.ByName("FFT")
	ms, _ := kernels.ByName("Mergesort")
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunLiveMix(rt.DWS, 4, 1, 0.05, fft, ms); err != nil {
			b.Fatal(err)
		}
	}
}
