package kernels

import (
	"testing"

	"dws/internal/rt"
)

// TestCatalogRunnable runs every catalog kernel at a tiny size on a live
// DWS program — the same path the job server takes.
func TestCatalogRunnable(t *testing.T) {
	sys, err := rt.NewSystem(rt.Config{Cores: 4, Programs: 1, Policy: rt.DWS})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	p, err := sys.NewProgram("catalog")
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range catalog {
		if err := p.Run(spec.NewTask(0.02)); err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
	}
}

func TestCatalogByName(t *testing.T) {
	if _, ok := ByName("fft"); !ok {
		t.Error("ByName should be case-insensitive")
	}
	if _, ok := ByName("nope"); ok {
		t.Error("ByName accepted an unknown kernel")
	}
	if n := len(Names()); n != 11 {
		t.Errorf("lookup space has %d kernels, want 8 paper + 3 synthetic", n)
	}
	if n := len(Catalog()); n != 8 {
		t.Errorf("Catalog has %d kernels, want exactly the paper's 8", n)
	}
	if _, ok := ByName("bursty"); !ok {
		t.Error("synthetic shapes should resolve through ByName")
	}
}
