// Package kernels implements the paper's eight benchmarks (Table 2) as
// real computations: a sequential reference and a parallel version built
// on the live work-stealing runtime (internal/rt) for each.
//
// The parallel versions use the same fork-join decompositions as the
// simulator's workload profiles (internal/workload), so the two substrates
// agree on shape:
//
//	FFT        recursive radix-2 with parallel halves, radix-8 base pass
//	PNN        GMDH-style polynomial network, parallel over units
//	Cholesky   right-looking factorisation, parallel trailing update
//	LU         Doolittle factorisation, parallel trailing update
//	GE         forward elimination, parallel row updates
//	Heat       5-point Jacobi, parallel row bands per sweep
//	SOR        red-black successive over-relaxation, parallel row bands
//	Mergesort  parallel divide, radix-sorted leaves, sequential merge
//
// All kernels are deterministic given their inputs; tests verify each
// parallel version against its sequential reference.
package kernels

// grain is the smallest chunk of loop work a task takes; it bounds spawn
// overhead without starving the scheduler of parallelism.
const grain = 64

// chunks splits [0, n) into ranges of at most grain elements, invoking
// spawn for each; it is the shared decomposition helper.
func chunks(n int, spawn func(lo, hi int)) {
	for lo := 0; lo < n; lo += grain {
		hi := lo + grain
		if hi > n {
			hi = n
		}
		spawn(lo, hi)
	}
}

// stream is the one pseudo-random sequence every input generator in this
// package draws from: a xorshift64 state derived from the caller's seed.
// A generator lives for one call, so it must cost nothing to set up —
// math/rand's source is 4.9 KB to allocate and 607 words to seed, more
// than a small job's whole kernel. The statistical quality is far beyond
// what test matrices and sort inputs need.
type stream uint64

func newStream(seed int64) stream {
	x := uint64(seed)*2862933555777941757 + 88172645463325252
	if x == 0 {
		x = 88172645463325252 // 0 is xorshift's fixed point
	}
	return stream(x)
}

func (s *stream) next() uint64 {
	x := uint64(*s)
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*s = stream(x)
	return x
}

// unit returns the next value in [-1, 1), from the top 53 bits.
func (s *stream) unit() float64 {
	return float64(s.next()>>11)/(1<<52) - 1
}

// intn returns the next value in [0, n) by multiply-shift (n < 2³²).
func (s *stream) intn(n int) int {
	return int((s.next() >> 32) * uint64(n) >> 32)
}

// RandMatrix returns an n×n row-major matrix with entries in [-1, 1),
// deterministic in seed.
func RandMatrix(n int, seed int64) []float64 {
	rng := newStream(seed)
	m := make([]float64, n*n)
	for i := range m {
		m[i] = rng.unit()
	}
	return m
}

// SPDMatrix returns a symmetric positive-definite n×n matrix (AᵀA + nI),
// deterministic in seed — a valid Cholesky input.
//
// Row k of A adds a[k][i]·a[k][j] to every entry of the upper triangle,
// so both matrices are read along rows; the lower triangle is the upper's
// mirror. Each entry still sums its products from 0 in ascending k, and
// a product does not depend on its operands' order, so every entry has
// the bits of the column-walking Σₖ a[k][i]·a[k][j].
func SPDMatrix(n int, seed int64) []float64 {
	a := RandMatrix(n, seed)
	m := make([]float64, n*n)
	for k := 0; k < n; k++ {
		ak := a[k*n : k*n+n]
		for i, aki := range ak {
			row, mi := ak[i:], m[i*n+i:i*n+n] // columns i…n-1
			for j, akj := range row {
				mi[j] += aki * akj
			}
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			m[i*n+j] = m[j*n+i]
		}
		m[i*n+i] += float64(n)
	}
	return m
}

// DiagonallyDominant returns an n×n matrix safe for elimination without
// pivoting, deterministic in seed.
func DiagonallyDominant(n int, seed int64) []float64 {
	m := RandMatrix(n, seed)
	for i := 0; i < n; i++ {
		var row float64
		for j := 0; j < n; j++ {
			if v := m[i*n+j]; v >= 0 {
				row += v
			} else {
				row -= v
			}
		}
		m[i*n+i] = row + 1
	}
	return m
}

// RandSlice returns n pseudo-random int32 values, deterministic in seed.
func RandSlice(n int, seed int64) []int32 {
	rng := newStream(seed)
	s := make([]int32, n)
	for i := range s {
		s[i] = int32(rng.next() >> 32)
	}
	return s
}
