package bench

import (
	"strings"
	"testing"

	"dws/internal/sim"
)

// testOptions are fast but large enough for the shapes to be stable.
func testOptions() Options {
	opts := DefaultOptions()
	opts.Scale = 1.0
	opts.TargetRuns = 3
	return opts
}

// TestPaperClaims asserts each claim of PAPER.md §3.4 and §4 that the
// simulator reproduces, one subtest per claim, on the documented run:
// DefaultOptions, whose text rendering EXPERIMENTS.md quotes. A failure
// message starts with the claim's name and section.
func TestPaperClaims(t *testing.T) {
	opts := DefaultOptions()
	fig4, err := Fig4(opts)
	if err != nil {
		t.Fatal(err)
	}
	fig5, err := Fig5(opts)
	if err != nil {
		t.Fatal(err)
	}
	fig6, err := Fig6(opts)
	if err != nil {
		t.Fatal(err)
	}
	solo, err := SoloOverhead(opts)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := CoordPeriod(opts)
	if err != nil {
		t.Fatal(err)
	}

	claim := func(name, section string, check func(fail func(format string, args ...any))) {
		t.Run(name, func(t *testing.T) {
			check(func(format string, args ...any) {
				t.Helper()
				t.Errorf(name+" ("+section+"): "+format, args...)
			})
		})
	}
	// slower reports, for every program instance of outcomes, whether the
	// policy slow took longer than fast; an instance either policy was not
	// run on fails the claim, so a dropped policy cannot pass vacuously.
	slower := func(fail func(string, ...any), outcomes []MixOutcome, slow, fast sim.Policy) {
		if len(outcomes) != len(DefaultMixes) {
			fail("%d mixes measured, want %d", len(outcomes), len(DefaultMixes))
		}
		for _, o := range outcomes {
			s, okS := o.MeanUS[slow]
			f, okF := o.MeanUS[fast]
			if !okS || !okF {
				fail("mix %v was not run under both %v and %v", o.Mix, slow, fast)
				continue
			}
			for i, name := range o.Names {
				if s[i] <= f[i] {
					fail("mix %v %s: %v %.2fx is not slower than %v %.2fx",
						o.Mix, name, slow, o.Norm(slow, i), fast, o.Norm(fast, i))
				}
			}
		}
	}

	claim("fig4/dws-beats-abp", "§4.1, Fig. 4", func(fail func(string, ...any)) {
		slower(fail, fig4, sim.ABP, sim.DWS)
	})
	claim("fig4/max-vs-abp", "§4.1, Fig. 4", func(fail func(string, ...any)) {
		if g := maxReduction(fig4, sim.ABP); g < 0.323 {
			fail("max reduction vs ABP %.1f%%, want at least the paper's 32.3%%", 100*g)
		}
	})
	claim("fig4/beats-ep-somewhere", "§4.1, Fig. 4", func(fail func(string, ...any)) {
		// The paper reports up to 37.1 %; this reproduction asserts only
		// that the gain exists, because of its eight profiles only
		// Mergesort leaves cores idle for a co-runner to absorb.
		if g := maxReduction(fig4, sim.EP); g <= 0 {
			fail("DWS is faster than EP on no instance (max reduction %.1f%%; paper: up to 37.1%%)", 100*g)
		}
	})
	claim("fig5/dws-nc-slower", "§4.2, Fig. 5", func(fail func(string, ...any)) {
		slower(fail, fig5, sim.DWSNC, sim.DWS)
	})
	claim("fig6/interior-minimum", "§4.3, Fig. 6", func(fail func(string, ...any)) {
		k := opts.Cfg.Cores
		sum := map[int]float64{}
		best := 0
		for _, r := range fig6 {
			sum[r.TSleep] = r.MeanUS[0] + r.MeanUS[1]
			if best == 0 || sum[r.TSleep] < sum[best] {
				best = r.TSleep
			}
		}
		if best < k/2 || best > 2*k {
			fail("combined time is least at T_SLEEP=%d, outside [k/2, 2k] = [%d, %d]", best, k/2, 2*k)
		}
		for _, edge := range []int{1, 128} {
			if s, ok := sum[edge]; !ok || s <= sum[best] {
				fail("T_SLEEP=%d (%.0f µs, measured %v) is not worse than T_SLEEP=%d (%.0f µs)", edge, s, ok, best, sum[best])
			}
		}
	})
	claim("solo/no-degradation", "§4.4", func(fail func(string, ...any)) {
		for _, r := range solo {
			if rel := r.DWSUS / r.PlainUS; rel > 1.01 {
				fail("%s alone: DWS/plain = %.3f, want ≤ 1.01", r.Bench.Name, rel)
			}
		}
	})
	claim("coordperiod/t10-not-worse-than-t100", "§3.4", func(fail func(string, ...any)) {
		sum := map[int64]float64{}
		for _, r := range coord {
			sum[r.PeriodUS] = r.MeanUS[0] + r.MeanUS[1]
		}
		at10, ok10 := sum[10000]
		at100, ok100 := sum[100000]
		if !ok10 || !ok100 || at10 > at100 {
			fail("T=10 ms (%.0f µs, measured %v) is worse than T=100 ms (%.0f µs, measured %v)", at10, ok10, at100, ok100)
		}
	})
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
