package bench

import (
	"testing"

	"dws/internal/sim"
	"dws/internal/stats"
)

// TestScaleM: DWS stays the best (or tied-best) policy as m grows, and
// slowdowns grow roughly with m.
func TestScaleM(t *testing.T) {
	opts := testOptions()
	opts.Scale = 0.5
	rows, err := ScaleM(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		abp := stats.GeoMean(r.NormFor[sim.ABP])
		dws := stats.GeoMean(r.NormFor[sim.DWS])
		t.Logf("m=%d: ABP=%.2f EP=%.2f DWS=%.2f", r.M, abp,
			stats.GeoMean(r.NormFor[sim.EP]), dws)
		if dws > abp*1.02 {
			t.Errorf("m=%d: DWS geomean %.2f worse than ABP %.2f", r.M, dws, abp)
		}
		// Sanity: with m co-runners, nothing runs faster than ~1/2 solo
		// nor absurdly slow.
		if dws < 0.5 || dws > float64(r.M)*3 {
			t.Errorf("m=%d: implausible DWS geomean %.2f", r.M, dws)
		}
	}
	if tb := ScaleMTable(rows); len(tb.Rows) != 3 {
		t.Error("ScaleMTable row count")
	}
}

// TestSharingExperiment: sharing+DWS beats sharing+ABP on every mix.
func TestSharingExperiment(t *testing.T) {
	opts := testOptions()
	opts.Scale = 0.5
	rows, err := Sharing(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		t.Logf("%v %v ABP=%v DWS=%v", r.Mix, r.Names, r.ABPUS, r.DWSUS)
		for i := 0; i < 2; i++ {
			if r.DWSUS[i] > r.ABPUS[i]*1.10 {
				t.Errorf("%v %s: sharing+DWS (%.0f) much worse than sharing+ABP (%.0f)",
					r.Mix, r.Names[i], r.DWSUS[i], r.ABPUS[i])
			}
		}
	}
	if tb := SharingTable(rows); len(tb.Rows) != 3 {
		t.Error("SharingTable row count")
	}
}

// TestElasticityExperiment: DWS runs at near-solo speed while alone; EP
// cannot.
func TestElasticityExperiment(t *testing.T) {
	opts := testOptions()
	opts.Scale = 0.5
	rows, names, err := Elasticity(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	byPol := map[sim.Policy]ElasticityRow{}
	for _, r := range rows {
		byPol[r.Policy] = r
		t.Logf("%-4v alone=%.0f corun=%.0f late=%.0f", r.Policy, r.BeforeUS, r.AfterUS, r.LateUS)
	}
	dws, ep := byPol[sim.DWS], byPol[sim.EP]
	if dws.BeforeUS > 0.75*ep.BeforeUS {
		t.Errorf("DWS alone (%.0f) should clearly beat EP alone (%.0f)", dws.BeforeUS, ep.BeforeUS)
	}
	if dws.BeforeUS > 0.9*dws.AfterUS {
		t.Errorf("DWS should contract on arrival: alone=%.0f corun=%.0f", dws.BeforeUS, dws.AfterUS)
	}
	if tb := ElasticityTable(rows, names); len(tb.Rows) != 3 {
		t.Error("ElasticityTable row count")
	}
}

// TestVariance: the DWS-beats-ABP conclusion holds across seeds, with
// confidence intervals far smaller than the policy gaps.
func TestVariance(t *testing.T) {
	opts := testOptions()
	opts.Scale = 0.5
	rows, names, err := Variance(opts, []int64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	byPol := map[sim.Policy]VarianceRow{}
	for _, r := range rows {
		byPol[r.Policy] = r
		t.Logf("%-4v %s=%s %s=%s", r.Policy, names[0], r.A.String(), names[1], r.B.String())
	}
	abp, dws := byPol[sim.ABP], byPol[sim.DWS]
	if dws.A.Mean+dws.A.CI95() >= abp.A.Mean-abp.A.CI95() {
		t.Errorf("DWS vs ABP gap for %s not robust: %v vs %v", names[0], dws.A, abp.A)
	}
	if tb := VarianceTable(rows, names); len(tb.Rows) != 3 {
		t.Error("VarianceTable rows")
	}
}
