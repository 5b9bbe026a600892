package dws_test

import (
	"testing"

	"dws/internal/bench"
	"dws/internal/kernels"
	"dws/internal/rt"
)

// BenchmarkLiveMix co-runs two real kernels on the live runtime (the
// mechanics validation; wall-clock policy differences require a
// multi-core host). Run with `go test -bench=LiveMix -benchmem`.
func BenchmarkLiveMix(b *testing.B) {
	fft, _ := kernels.ByName("FFT")
	ms, _ := kernels.ByName("Mergesort")
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunLiveMix(rt.DWS, 4, 1, 0.05, fft, ms); err != nil {
			b.Fatal(err)
		}
	}
}
