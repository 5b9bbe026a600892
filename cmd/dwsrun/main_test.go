package main

import (
	"strings"
	"testing"

	"dws/internal/kernels"
)

// TestKernelLookup: -a/-b resolve through the one kernel catalog — all
// eight Table 2 benchmarks and the synthetics, case-insensitively — and a
// miss names what exists.
func TestKernelLookup(t *testing.T) {
	for _, name := range kernels.Names() {
		if k, err := kernel(strings.ToLower(name)); err != nil || k.Name != name {
			t.Errorf("kernel(%q) = %q, %v", strings.ToLower(name), k.Name, err)
		}
	}
	if len(kernels.Names()) < 8 {
		t.Fatalf("catalog has %d kernels, want the eight of Table 2 at least", len(kernels.Names()))
	}
	_, err := kernel("Quicksort")
	if err == nil || !strings.Contains(err.Error(), "Mergesort") {
		t.Errorf("kernel(Quicksort) = %v, want an error listing the catalog", err)
	}
}
