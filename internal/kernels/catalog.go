package kernels

import (
	"sort"
	"strings"

	"dws/internal/rt"
)

// Spec is one catalog entry: a benchmark kernel runnable by name, as the
// job server and the CLIs look them up.
type Spec struct {
	// Name is the paper's benchmark name (Table 2).
	Name string
	// NewTask returns a task over the kernel's deterministic input at
	// scale size (1.0 ≈ hundreds of milliseconds on a multi-core host; ≤0
	// defaults to 1.0). An FFT task copies that input into buffers
	// recycled between runs, so every run of it gets the same input and
	// runs may overlap; the other kernels build fresh input per call and
	// compute on it in place, so build one per run.
	NewTask func(size float64) rt.Task
}

// dim scales base by size with a floor of 8.
func dim(base int, size float64) int {
	if size <= 0 {
		size = 1.0
	}
	d := int(float64(base) * size)
	if d < 8 {
		d = 8
	}
	return d
}

// pow2 rounds dim(base, size) up to a power of two (FFT input length).
func pow2(base int, size float64) int {
	n := 1
	for n < dim(base, size) {
		n <<= 1
	}
	return n
}

// Catalog returns all eight Table 2 benchmarks as named, size-scalable
// task builders.
func Catalog() []Spec {
	return []Spec{
		{Name: "FFT", NewTask: func(size float64) rt.Task {
			return catalogFFT(pow2(1<<18, size))
		}},
		{Name: "PNN", NewTask: func(size float64) rt.Task {
			net := NewPNN(16, []int{64, 32, 16}, 1)
			batch := RandBatch(dim(20_000, size), 16, 2)
			out := make([][]float64, len(batch))
			return net.ForwardTask(batch, out)
		}},
		{Name: "Cholesky", NewTask: func(size float64) rt.Task {
			n := dim(384, size)
			a := SPDMatrix(n, 12)
			return CholeskyTask(a, n, new(bool))
		}},
		{Name: "LU", NewTask: func(size float64) rt.Task {
			n := dim(384, size)
			a := DiagonallyDominant(n, 13)
			return LUTask(a, n, new(bool))
		}},
		{Name: "GE", NewTask: func(size float64) rt.Task {
			n := dim(384, size)
			a := DiagonallyDominant(n, 14)
			b := make([]float64, n)
			for i := range b {
				b[i] = float64(i%7) - 3
			}
			return GETask(a, b, n, make([]float64, n), new(bool))
		}},
		{Name: "Heat", NewTask: func(size float64) rt.Task {
			g := NewGrid(dim(512, size), dim(512, size))
			return HeatTask(g, 30)
		}},
		{Name: "SOR", NewTask: func(size float64) rt.Task {
			g := NewGrid(dim(512, size), dim(512, size))
			return SORTask(g, 30, 1.5)
		}},
		{Name: "Mergesort", NewTask: func(size float64) rt.Task {
			return MergesortTask(RandSlice(dim(4_000_000, size), 11))
		}},
	}
}

// catalog is the Table 2 catalog followed by the synthetic shapes — the
// full lookup space of ByName/Names, built once because the job server
// resolves a kernel per request. Catalog itself stays paper-only so
// Table 2 experiments iterate exactly the paper's eight benchmarks.
var catalog = append(Catalog(), synthetics()...)

// ByName looks a kernel up case-insensitively, searching the Table 2
// catalog and the synthetic shapes. The second result reports whether the
// name is known.
func ByName(name string) (Spec, bool) {
	for _, s := range catalog {
		if strings.EqualFold(s.Name, name) {
			return s, true
		}
	}
	return Spec{}, false
}

// Names returns all runnable kernel names (paper + synthetic), sorted.
func Names() []string {
	ns := make([]string, 0, len(catalog))
	for _, s := range catalog {
		ns = append(ns, s.Name)
	}
	sort.Strings(ns)
	return ns
}

// RandComplex returns n pseudo-random complex values with both parts in
// [-1, 1), deterministic in seed (an FFT input generator).
func RandComplex(n int, seed int64) []complex128 {
	rng := newStream(seed)
	next := func() float64 {
		return float64(int64(rng.next()%2000))/1000 - 1
	}
	a := make([]complex128, n)
	for i := range a {
		re := next()
		im := next()
		a[i] = complex(re, im)
	}
	return a
}
