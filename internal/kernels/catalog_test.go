package kernels

import (
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
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

// sameBits reports whether a and b are equal bit for bit (so +0 ≠ −0).
func sameBits(a, b []complex128) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(real(a[i])) != math.Float64bits(real(b[i])) ||
			math.Float64bits(imag(a[i])) != math.Float64bits(imag(b[i])) {
			return false
		}
	}
	return true
}

// fftReference is FFTTask's transform of the catalog's length-n input:
// what every catalog FFT job of that length must produce, bit for bit.
func fftReference(t *testing.T, n int) []complex128 {
	t.Helper()
	a := RandComplex(n, 7)
	run(t, FFTTask(a))
	return a
}

// watchFFT points the fftRan hook at a check against want until the test
// ends and returns the count of outputs seen and of those that differed.
func watchFFT(t *testing.T, want []complex128) (seen, wrong *atomic.Int64) {
	seen, wrong = new(atomic.Int64), new(atomic.Int64)
	fftRan = func(out []complex128) {
		seen.Add(1)
		if !sameBits(out, want) {
			wrong.Add(1)
		}
	}
	t.Cleanup(func() { fftRan = nil })
	return seen, wrong
}

// TestCatalogFFTIsFFTTask: a catalog FFT job, whose input, table and
// buffers are shared or recycled, is FFTTask's transform of
// RandComplex(n, 7) bit for bit — at every length the catalog sizes
// below produce, when one task runs twice, and when two programs run
// the same length at once (each run must get a buffer of its own).
func TestCatalogFFTIsFFTTask(t *testing.T) {
	spec, _ := ByName("FFT")
	sys, err := rt.NewSystem(rt.Config{Cores: 4, Programs: 2, Policy: rt.DWS})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	var progs [2]*rt.Program
	for i := range progs {
		if progs[i], err = sys.NewProgram("fft"); err != nil {
			t.Fatal(err)
		}
	}
	for _, size := range []float64{0.001, 0.02, 0.05, 0.25} {
		n := pow2(1<<18, size)
		seen, wrong := watchFFT(t, fftReference(t, n))
		task := spec.NewTask(size)
		for i := 0; i < 2; i++ {
			if err := progs[0].Run(task); err != nil {
				t.Fatal(err)
			}
		}
		const rounds = 4
		var wg sync.WaitGroup
		for _, p := range progs {
			wg.Add(1)
			go func(p *rt.Program) {
				defer wg.Done()
				for i := 0; i < rounds; i++ {
					if err := p.Run(spec.NewTask(size)); err != nil {
						t.Error(err)
					}
				}
			}(p)
		}
		wg.Wait()
		if got, want := seen.Load(), int64(2+len(progs)*rounds); got != want || wrong.Load() != 0 {
			t.Errorf("size %g (n=%d): %d of %d outputs differ from FFTTask's, want %d runs and none", size, n, wrong.Load(), got, want)
		}
	}
}

// TestSharedTwiddles: the table a length's jobs share is twiddles(n),
// bit for bit, from a butterfly-free transform to the catalog's 2¹⁴.
func TestSharedTwiddles(t *testing.T) {
	for n := 2; n <= 1<<14; n <<= 1 {
		catalogFFT(n)
		if got := fftServed[bits.TrailingZeros(uint(n))].w; !sameBits(got, twiddles(n)) {
			t.Errorf("n=%d: the shared table differs from twiddles(n)", n)
		}
	}
}

// TestCatalogFFTAboveServed: a length no dwsd job can have (size 2 is
// 2¹⁹ points, one past the last shared slot) builds its input for every
// job, and still transforms it right.
func TestCatalogFFTAboveServed(t *testing.T) {
	spec, _ := ByName("FFT")
	n := pow2(1<<18, 2)
	if k := bits.TrailingZeros(uint(n)); k < len(fftServed) {
		t.Fatalf("n=%d has shared slot %d; the test wants a length past them", n, k)
	}
	seen, wrong := watchFFT(t, fftReference(t, n))
	for i := 0; i < 2; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		task := spec.NewTask(2)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew < uint64(16*n) {
			t.Errorf("job %d: NewTask(2) allocated %d bytes, want at least its %d-byte input", i, grew, 16*n)
		}
		run(t, task)
	}
	if seen.Load() != 2 || wrong.Load() != 0 {
		t.Errorf("%d of %d outputs differ from FFTTask's, want 2 runs and none", wrong.Load(), seen.Load())
	}
}

// msReference is what the catalog's Mergesort job of n keys must output:
// its documented keys — key i is RandSlice(1<<16, 11)[i mod 2¹⁶] xor
// (i div 2¹⁶)·0x9e3779b9 — sorted.
func msReference(n int) []int32 {
	block := RandSlice(1<<16, 11)
	keys := make([]int32, n)
	for i := range keys {
		keys[i] = block[i%len(block)] ^ int32(uint32(i/len(block))*0x9e3779b9)
	}
	slices.Sort(keys)
	return keys
}

// TestCatalogMergesortIsSortedKeys: a catalog Mergesort job, whose key
// block is shared and whose arena is recycled, outputs its documented
// keys sorted — through a falling, a rising and a repeated sequence of
// lengths on one program (the arena holds the last, longer job's tree and
// keys), across a new maximum that makes the arena regrow, and when two
// programs sort at once (each run must get an arena of its own). Up to
// 2¹⁶ keys the input is RandSlice(n, 11) itself.
func TestCatalogMergesortIsSortedKeys(t *testing.T) {
	want := RandSlice(1<<16, 11)
	slices.Sort(want)
	if !slices.Equal(msReference(1<<16), want) {
		t.Fatal("the first 2¹⁶ documented keys are not RandSlice(2¹⁶, 11)")
	}
	sys, err := rt.NewSystem(rt.Config{Cores: 4, Programs: 2, Policy: rt.DWS})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	var progs [2]*rt.Program
	for i := range progs {
		if progs[i], err = sys.NewProgram("sort"); err != nil {
			t.Fatal(err)
		}
	}
	cached := func() int {
		if ar := msCache.Load(); ar != nil {
			return len(ar.data) / 2
		}
		return 0
	}
	top := max(300_000, cached()+1) // longer than any arena yet: it must regrow
	sequences := [][]int{
		{200_000, 65_537, 65_536, 65_535, msCutoff, 100},
		{100, msCutoff, 65_535, 65_536, 65_537, 200_000, top},
		{top, top, 65_536, 65_536, 100, 100},
	}
	concurrent := []int{200_000, 65_536, 100, 65_537}
	sorted := map[int][]int32{}
	for _, n := range append(slices.Concat(sequences...), concurrent...) {
		if sorted[n] == nil {
			sorted[n] = msReference(n)
		}
	}
	var seen, wrong atomic.Int64
	msRan = func(out []int32) {
		seen.Add(1)
		if !slices.Equal(out, sorted[len(out)]) {
			wrong.Add(1)
		}
	}
	t.Cleanup(func() { msRan = nil })

	runs := int64(0)
	for _, seq := range sequences {
		for _, n := range seq {
			if err := progs[0].Run(catalogMergesort(n)); err != nil {
				t.Fatal(err)
			}
			runs++
			if c := cached(); c < n {
				t.Fatalf("after a %d-key job the cached arena holds %d keys", n, c)
			}
		}
	}
	const rounds = 3
	var wg sync.WaitGroup
	for i, p := range progs {
		wg.Add(1)
		go func(p *rt.Program, shift int) {
			defer wg.Done()
			for r := 0; r < rounds*len(concurrent); r++ {
				if err := p.Run(catalogMergesort(concurrent[(r+shift)%len(concurrent)])); err != nil {
					t.Error(err)
				}
			}
		}(p, i)
	}
	wg.Wait()
	runs += int64(len(progs) * rounds * len(concurrent))
	if seen.Load() != runs || wrong.Load() != 0 {
		t.Errorf("%d of %d outputs differ from the sorted documented keys, want %d runs and none", wrong.Load(), seen.Load(), runs)
	}
}
