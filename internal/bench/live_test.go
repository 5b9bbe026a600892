package bench

import (
	"testing"

	"dws/internal/kernels"
	"dws/internal/rt"
)

func liveKernel(t *testing.T, name string) kernels.Spec {
	t.Helper()
	k, ok := kernels.ByName(name)
	if !ok {
		t.Fatalf("kernel %q not in the catalog", name)
	}
	return k
}

func TestCatalogKernelsRunLive(t *testing.T) {
	for _, k := range kernels.Catalog() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			r, err := RunLiveMix(rt.DWS, 2, 1, 0.02, k, k)
			if err != nil {
				t.Fatal(err)
			}
			for i, lp := range r {
				if lp.MeanSec <= 0 {
					t.Fatalf("instance %d mean %v", i, lp.MeanSec)
				}
			}
		})
	}
}

func TestLiveMixAllPolicies(t *testing.T) {
	fft, ms := liveKernel(t, "FFT"), liveKernel(t, "Mergesort")
	for _, pol := range []rt.Policy{rt.ABP, rt.EP, rt.DWS, rt.DWSNC} {
		r, err := RunLiveMix(pol, 4, 2, 0.02, fft, ms)
		if err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		if len(r) != 2 || r[0].Name != "FFT" || r[1].Name != "Mergesort" {
			t.Fatalf("%v: programs %+v", pol, r)
		}
		// The per-run deltas come from rt.Stats.Sub, so they carry every
		// counter: each run spawns and executes at least its root.
		for _, lp := range r {
			for _, st := range lp.RunStats {
				if st.Runs != 1 || st.Spawns < 1 || st.Spawns != st.Execs {
					t.Fatalf("%v: per-run delta %+v", pol, st)
				}
			}
		}
	}
}

func TestLiveMixTable(t *testing.T) {
	tb, err := LiveMixTable(2, 1, 0.02, liveKernel(t, "FFT"), liveKernel(t, "Mergesort"))
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 4 {
		t.Fatalf("rows = %d, want 4 policies", len(tb.Rows))
	}
}

// TestLiveSolo: one kernel is a solo run through the same path.
func TestLiveSolo(t *testing.T) {
	r, err := RunLiveMix(rt.ABP, 2, 2, 0.02, liveKernel(t, "Heat"))
	if err != nil {
		t.Fatal(err)
	}
	if len(r) != 1 || r[0].Name != "Heat" || len(r[0].RunSec) != 2 || r[0].Stats.Runs != 2 {
		t.Fatalf("solo result %+v", r)
	}
}
