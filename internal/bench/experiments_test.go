package bench

import (
	"strings"
	"testing"

	"dws/internal/sim"
	"dws/internal/stats"
)

// testOptions are fast but large enough for the shapes to be stable.
func testOptions() Options {
	opts := DefaultOptions()
	opts.Scale = 1.0
	opts.TargetRuns = 3
	return opts
}

// TestFig4Shape asserts the paper's headline: across the mixes, DWS gives
// a substantial maximum execution-time reduction vs ABP (paper: 32.3%) and
// vs EP (paper: 37.1%), and is the best policy for most program instances.
func TestFig4Shape(t *testing.T) {
	outcomes, err := Fig4(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(outcomes) != len(DefaultMixes) {
		t.Fatalf("got %d outcomes, want %d", len(outcomes), len(DefaultMixes))
	}
	maxVsABP, maxVsEP := 0.0, 0.0
	dwsWins := 0
	instances := 0
	for _, o := range outcomes {
		for i := 0; i < 2; i++ {
			instances++
			abp := o.MeanUS[sim.ABP][i]
			ep := o.MeanUS[sim.EP][i]
			dws := o.MeanUS[sim.DWS][i]
			if g := stats.Improvement(abp, dws); g > maxVsABP {
				maxVsABP = g
			}
			if g := stats.Improvement(ep, dws); g > maxVsEP {
				maxVsEP = g
			}
			if dws <= abp*1.02 {
				dwsWins++
			}
			// No program instance may be catastrophically degraded by DWS
			// relative to ABP (the paper's DWS never loses to ABP).
			if dws > abp*1.25 {
				t.Errorf("mix %v %s: DWS %.0f >> ABP %.0f", o.Mix, o.Names[i], dws, abp)
			}
		}
	}
	t.Logf("max reduction vs ABP = %.1f%%, vs EP = %.1f%%, DWS beats ABP on %d/%d instances",
		100*maxVsABP, 100*maxVsEP, dwsWins, instances)
	if maxVsABP < 0.20 {
		t.Errorf("max improvement vs ABP %.1f%%, want >= 20%% (paper: 32.3%%)", 100*maxVsABP)
	}
	if maxVsEP < 0.05 {
		t.Errorf("max improvement vs EP %.1f%%, want >= 5%% (paper: 37.1%%)", 100*maxVsEP)
	}
	if dwsWins < instances*3/4 {
		t.Errorf("DWS beats ABP on only %d/%d instances", dwsWins, instances)
	}
	tb := Fig4Table(outcomes)
	if !strings.Contains(tb.String(), "Fig 4") {
		t.Error("Fig4Table missing title")
	}
}

// TestFig5Shape asserts §4.2: DWS-NC performs worse than DWS on most
// program instances (the coordinator matters).
func TestFig5Shape(t *testing.T) {
	outcomes, err := Fig5(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	worse, total := 0, 0
	for _, o := range outcomes {
		for i := 0; i < 2; i++ {
			total++
			if o.MeanUS[sim.DWSNC][i] > o.MeanUS[sim.DWS][i]*1.02 {
				worse++
			}
		}
	}
	t.Logf("DWS-NC worse than DWS on %d/%d instances", worse, total)
	if worse < total*2/3 {
		t.Errorf("DWS-NC worse on only %d/%d instances; coordinator should matter", worse, total)
	}
	tb := Fig5Table(outcomes)
	if !strings.Contains(tb.String(), "DWS-NC") {
		t.Error("Fig5Table missing DWS-NC column")
	}
}

// TestFig6Shape asserts the T_SLEEP sweep's U-shape: the extremes (1 and
// 128) are worse than the paper's suggested k..2k region (16..32).
func TestFig6Shape(t *testing.T) {
	rows, err := Fig6(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("got %d rows, want 8", len(rows))
	}
	sum := func(r Fig6Row) float64 { return r.MeanUS[0] + r.MeanUS[1] }
	byTS := map[int]Fig6Row{}
	for _, r := range rows {
		byTS[r.TSleep] = r
		t.Logf("T_SLEEP=%3d FFT=%8.0f Mergesort=%8.0f", r.TSleep, r.MeanUS[0], r.MeanUS[1])
	}
	mid := sum(byTS[16])
	if s := sum(byTS[32]); s < mid {
		mid = s
	}
	if sum(byTS[1]) < mid*1.01 {
		t.Errorf("T_SLEEP=1 (%.0f) not worse than best of 16/32 (%.0f)", sum(byTS[1]), mid)
	}
	if sum(byTS[128]) < mid*1.005 {
		t.Errorf("T_SLEEP=128 (%.0f) not worse than best of 16/32 (%.0f)", sum(byTS[128]), mid)
	}
}

// TestSoloOverheadShape asserts §4.4: DWS costs a solo program little.
func TestSoloOverheadShape(t *testing.T) {
	rows, err := SoloOverhead(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		rel := r.DWSUS / r.PlainUS
		t.Logf("%-9s plain=%8.0f dws=%8.0f (%.3fx)", r.Bench.Name, r.PlainUS, r.DWSUS, rel)
		if rel > 1.10 {
			t.Errorf("%s: DWS solo overhead %.1f%%, want <= 10%%", r.Bench.Name, 100*(rel-1))
		}
	}
	tb := SoloOverheadTable(rows)
	if len(tb.Rows) != len(rows) {
		t.Error("SoloOverheadTable row count mismatch")
	}
}

// TestCoordPeriodAblation checks the sweep runs and the suggested T=10ms
// is not dominated by the extremes.
func TestCoordPeriodAblation(t *testing.T) {
	rows, err := CoordPeriod(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("got %d rows, want 5", len(rows))
	}
	sum := func(r CoordRow) float64 { return r.MeanUS[0] + r.MeanUS[1] }
	var at10, at100 float64
	for _, r := range rows {
		t.Logf("T=%6dµs FFT=%8.0f MS=%8.0f", r.PeriodUS, r.MeanUS[0], r.MeanUS[1])
		switch r.PeriodUS {
		case 10000:
			at10 = sum(r)
		case 100000:
			at100 = sum(r)
		}
	}
	if at10 > at100 {
		t.Errorf("T=10ms (%.0f) worse than T=100ms (%.0f); coordinator should help when timely", at10, at100)
	}
}

// TestTable2 lists all eight benchmarks.
func TestTable2(t *testing.T) {
	tb := Table2()
	if len(tb.Rows) != 8 {
		t.Fatalf("Table2 has %d rows, want 8", len(tb.Rows))
	}
	s := tb.String()
	for _, name := range []string{"FFT", "PNN", "Cholesky", "LU", "GE", "Heat", "SOR", "Mergesort"} {
		if !strings.Contains(s, name) {
			t.Errorf("Table2 missing %s", name)
		}
	}
}

// TestYieldAblation runs the weak/strong yield comparison.
func TestYieldAblation(t *testing.T) {
	opts := testOptions()
	opts.Scale = 0.5
	rows, err := YieldAblation(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		t.Logf("%v weak=%v strong=%v", r.Mix, r.WeakUS, r.StrongUS)
		// Both interpretations must produce finite, positive results, and
		// the knob must actually change behaviour. (Strong yield can hurt
		// either or both programs: giving the core away immediately is the
		// unfairness §2.1 describes.)
		for i := 0; i < 2; i++ {
			if r.WeakUS[i] <= 0 || r.StrongUS[i] <= 0 {
				t.Errorf("%v: non-positive mean", r.Mix)
			}
		}
		if r.WeakUS == r.StrongUS {
			t.Errorf("%v: StrongYield knob has no effect", r.Mix)
		}
	}
	if tb := YieldAblationTable(rows); len(tb.Rows) != 2 {
		t.Error("YieldAblationTable row count mismatch")
	}
}

// TestTableRender checks alignment and notes rendering.
func TestTableRender(t *testing.T) {
	tb := &Table{
		Title:  "T",
		Header: []string{"a", "long-header"},
		Rows:   [][]string{{"xxxxxx", "y"}},
		Notes:  []string{"a note"},
	}
	s := tb.String()
	if !strings.Contains(s, "== T ==") || !strings.Contains(s, "note: a note") {
		t.Fatalf("render = %q", s)
	}
	lines := strings.Split(s, "\n")
	if !strings.HasPrefix(lines[1], "a     ") {
		t.Fatalf("header not padded: %q", lines[1])
	}
}

// TestSweepTables renders the Fig. 6 and coordinator-period tables.
func TestSweepTables(t *testing.T) {
	fig6 := Fig6Table([]Fig6Row{{TSleep: 16, MeanUS: [2]float64{1000, 2000}}})
	if !strings.Contains(fig6.String(), "T_SLEEP") {
		t.Error("Fig6Table missing header")
	}
	coord := CoordPeriodTable([]CoordRow{{PeriodUS: 10000, MeanUS: [2]float64{1000, 2000}}})
	if !strings.Contains(coord.String(), "10") {
		t.Error("CoordPeriodTable missing row")
	}
}

// TestExperimentsTable: the -exp table has unique names, "all" is the
// table in its own order, every entry runs and renders a non-empty table
// in each format, and a miss names what exists.
func TestExperimentsTable(t *testing.T) {
	all, err := Select("all")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(Experiments) {
		t.Fatalf("Select(all) has %d entries, the table %d", len(all), len(Experiments))
	}
	opts := DefaultOptions()
	opts.Scale, opts.TargetRuns = 0.05, 1
	seen := map[string]bool{}
	for i, e := range Experiments {
		if all[i].Name != e.Name {
			t.Errorf("Select(all)[%d] = %s, want table order (%s)", i, all[i].Name, e.Name)
		}
		if seen[e.Name] || e.Name == "all" || e.Doc == "" {
			t.Errorf("entry %d: name %q (doc %q) is duplicate, reserved or undocumented", i, e.Name, e.Doc)
		}
		seen[e.Name] = true
		one, err := Select(strings.ToUpper(e.Name))
		if err != nil || len(one) != 1 || one[0].Name != e.Name {
			t.Errorf("Select(%q) = %v, %v", strings.ToUpper(e.Name), one, err)
		}
		tb, err := e.Run(opts)
		if err != nil {
			t.Errorf("%s: %v", e.Name, err)
			continue
		}
		if len(tb.Rows) == 0 {
			t.Errorf("%s: empty table", e.Name)
		}
		for _, format := range []string{"text", "csv", "json"} {
			render, err := Renderer(format)
			if err != nil {
				t.Fatal(err)
			}
			var sb strings.Builder
			if err := render(tb, &sb); err != nil || sb.Len() == 0 {
				t.Errorf("%s as %s: %d bytes, %v", e.Name, format, sb.Len(), err)
			}
		}
	}
	if _, err := Select("related"); err == nil || !strings.Contains(err.Error(), "fig4") {
		t.Errorf("Select(related) = %v, want an error listing the experiments", err)
	}
	if _, err := Renderer("yaml"); err == nil {
		t.Error("Renderer(yaml) accepted")
	}
}
