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

// BenchmarkFFTPar times a run of FFTTask; its set-up (scratch, table and
// tree) is made with the timer stopped.
func BenchmarkFFTPar(b *testing.B) {
	p := benchSystem(b)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		task := FFTTask(randComplexBench(1 << 14))
		b.StartTimer()
		if err := p.Run(task); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFFTServed is a served FFT(0.05) job's budget (n = 2¹⁴, 64
// leaves of fftCutoff points). job times NewTask + Run of the catalog's
// job in steady state on a 2-core, 2-slot DWS program with the arbiter
// on, which is dwsd's shape. The other three time the job's sequential
// parts on one core: gather, every leaf's gather from the shared input;
// leaves, every leaf's butterfly levels; inner, the inner nodes' levels
// (widths 512 to 2¹⁴). The last two re-gather with the timer stopped.
func BenchmarkFFTServed(b *testing.B) {
	spec, _ := ByName("FFT")
	b.Run("job", func(b *testing.B) {
		s, err := rt.NewSystem(rt.Config{
			Cores: 2, Programs: 2, Policy: rt.DWS, ArbiterPeriod: 50 * time.Millisecond,
		})
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		p, err := s.NewProgram("served")
		if err != nil {
			b.Fatal(err)
		}
		job := func() {
			if err := p.Run(spec.NewTask(0.05)); err != nil {
				b.Fatal(err)
			}
		}
		for warm := 0; warm < 50; warm++ {
			job()
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			job()
		}
	})

	n := pow2(1<<18, 0.05)
	in, w := RandComplex(n, 7), twiddles(n)
	a := make([]complex128, n)
	gatherAll := func() {
		for off := 0; off < n; off += fftCutoff {
			gather(a[off:off+fftCutoff], in, off)
		}
	}
	leaves := func() {
		for off := 0; off < n; off += fftCutoff {
			fftLevels(a[off:off+fftCutoff], w)
		}
	}
	b.Run("gather", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			gatherAll()
		}
	})
	b.Run("leaves", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			gatherAll()
			b.StartTimer()
			leaves()
		}
	})
	b.Run("inner", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			gatherAll()
			leaves()
			b.StartTimer()
			for size := 2 * fftCutoff; size <= n; size <<= 1 {
				for start := 0; start < n; start += size {
					butterflies(a[start:start+size], w[size/2:size])
				}
			}
		}
	})
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

// BenchmarkMergesortPar times a run of MergesortTask; the task (buffer
// and tree) is built once and the input refilled with the timer stopped.
func BenchmarkMergesortPar(b *testing.B) {
	p := benchSystem(b)
	src := RandSlice(200_000, 1)
	data := make([]int32, len(src))
	task := MergesortTask(data)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		copy(data, src)
		b.StartTimer()
		if err := p.Run(task); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMergesortServed is a served Mergesort(0.05) job's budget
// (200 000 keys, halved down to leaves of at most msCutoff keys: 16 of
// 12 500 at msCutoff 2¹⁴). job times NewTask + Run of the catalog's job in
// steady state on a 2-core, 2-slot DWS program with the arbiter on, which
// is dwsd's shape. The other three time the job's sequential parts on one
// core: input, what the job pays besides its leaves and merges — NewTask,
// and Run's arena handoff: taking the cached arena, laying the tree over
// it and giving it back (the keys themselves are written by the leaves);
// leaves, every leaf's radix sort; merges, the merge levels above the
// leaves (four at msCutoff 2¹⁴). The last two refill the input with the
// timer stopped, and merges sorts the leaves there too.
func BenchmarkMergesortServed(b *testing.B) {
	spec, _ := ByName("Mergesort")
	b.Run("job", func(b *testing.B) {
		s, err := rt.NewSystem(rt.Config{
			Cores: 2, Programs: 2, Policy: rt.DWS, ArbiterPeriod: 50 * time.Millisecond,
		})
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		p, err := s.NewProgram("served")
		if err != nil {
			b.Fatal(err)
		}
		job := func() {
			if err := p.Run(spec.NewTask(0.05)); err != nil {
				b.Fatal(err)
			}
		}
		for warm := 0; warm < 20; warm++ {
			job()
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			job()
		}
	})
	n := dim(4_000_000, 0.05)
	b.Run("input", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			spec.NewTask(0.05)
			ar := msTake(n)
			msBuild(ar.slab, ar.data[:n], ar.data[n:2*n], msKeys(), 0)
			msGive(ar)
		}
	})

	src := RandSlice(n, 11)
	a, buf := make([]int32, len(src)), make([]int32, len(src))
	noMerge := func([]int32, int, []int32) {}
	b.Run("leaves", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			copy(a, src)
			b.StartTimer()
			msWalk(a, buf, radixSort, noMerge)
		}
	})
	b.Run("merges", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			copy(a, src)
			msWalk(a, buf, radixSort, noMerge)
			b.StartTimer()
			msWalk(a, buf, func([]int32, []int32) {}, merge)
		}
	})
}

// msWalk visits MergesortTask's tree over a in MergesortSeq's order:
// leaf on each block of at most msCutoff keys, then inner on each merge.
func msWalk(a, buf []int32, leaf func(a, buf []int32), inner func(a []int32, mid int, buf []int32)) {
	if len(a) <= msCutoff {
		leaf(a, buf)
		return
	}
	mid := len(a) / 2
	msWalk(a[:mid], buf[:mid], leaf, inner)
	msWalk(a[mid:], buf[mid:], leaf, inner)
	inner(a, mid, buf)
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
