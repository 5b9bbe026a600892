package kernels

import (
	"testing"
	"time"

	"dws/internal/rt"
)

// Micro-benchmarks of the kernels themselves: sequential vs parallel on
// the live runtime. On a single-CPU host the parallel versions mostly
// measure runtime overhead; on a multi-core host they show speedup.

func benchSystem(b testing.TB) *rt.Program {
	b.Helper()
	s, err := rt.NewSystem(rt.Config{
		Cores: 4, Programs: 1, Policy: rt.DWS, CoordPeriod: 2 * time.Millisecond,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(s.Close)
	p, err := s.NewProgram("bench")
	if err != nil {
		b.Fatal(err)
	}
	return p
}

func BenchmarkFFTSeq(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		data := randComplexBench(1 << 14)
		b.StartTimer()
		FFTSeq(data)
	}
}

func BenchmarkFFTPar(b *testing.B) {
	p := benchSystem(b)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		data := randComplexBench(1 << 14)
		b.StartTimer()
		if err := p.Run(FFTTask(data)); err != nil {
			b.Fatal(err)
		}
	}
}

func randComplexBench(n int) []complex128 {
	a := make([]complex128, n)
	for i := range a {
		a[i] = complex(float64(i%257)/257, float64(i%263)/263)
	}
	return a
}

func BenchmarkMergesortSeq(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		data := RandSlice(200_000, 1)
		b.StartTimer()
		MergesortSeq(data)
	}
}

func BenchmarkMergesortPar(b *testing.B) {
	p := benchSystem(b)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		data := RandSlice(200_000, 1)
		b.StartTimer()
		if err := p.Run(MergesortTask(data)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCholeskySeq(b *testing.B) {
	orig := SPDMatrix(128, 1)
	buf := make([]float64, len(orig))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, orig)
		if !CholeskySeq(buf, 128) {
			b.Fatal("not SPD")
		}
	}
}

func BenchmarkCholeskyPar(b *testing.B) {
	p := benchSystem(b)
	orig := SPDMatrix(128, 1)
	buf := make([]float64, len(orig))
	var ok bool
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, orig)
		if err := p.Run(CholeskyTask(buf, 128, &ok)); err != nil || !ok {
			b.Fatal("cholesky failed")
		}
	}
}

func BenchmarkHeatSeq(b *testing.B) {
	g := NewGrid(128, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		HeatSeq(g, 10)
	}
}

func BenchmarkHeatPar(b *testing.B) {
	p := benchSystem(b)
	g := NewGrid(128, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.Run(HeatTask(g, 10)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSORSeq(b *testing.B) {
	g := NewGrid(128, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SORSeq(g, 10, 1.5)
	}
}

func BenchmarkPNNForward(b *testing.B) {
	net := NewPNN(16, []int{64, 32, 16}, 1)
	batch := RandBatch(256, 16, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.ForwardSeq(batch)
	}
}

func BenchmarkGESeq(b *testing.B) {
	a := DiagonallyDominant(128, 1)
	rhs := make([]float64, 128)
	for i := range rhs {
		rhs[i] = float64(i)
	}
	aBuf := make([]float64, len(a))
	bBuf := make([]float64, len(rhs))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(aBuf, a)
		copy(bBuf, rhs)
		if GESeq(aBuf, bBuf, 128) == nil {
			b.Fatal("GE failed")
		}
	}
}

func BenchmarkLUSeq(b *testing.B) {
	a := DiagonallyDominant(128, 1)
	buf := make([]float64, len(a))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, a)
		if !LUSeq(buf, 128) {
			b.Fatal("LU failed")
		}
	}
}
