package kernels

import (
	"math"
	"math/bits"
	"math/cmplx"

	"dws/internal/rt"
)

// fftCutoff is the subproblem size below which the parallel FFT recurses
// sequentially.
const fftCutoff = 256

// FFTSeq performs an in-place iterative radix-2 Cooley–Tukey FFT.
// len(a) must be a power of two.
func FFTSeq(a []complex128) { fftIter(a, twiddles(len(a))) }

// twiddles returns the n/2 roots of unity every level of an n-point
// transform reads: w[k] = exp(−2πik/n). A level of butterflies of width
// size uses every (n/size)-th entry, so one table per transform replaces
// a cmplx.Exp per butterfly (n/2·log₂n of them for n/2 distinct values).
// The second quarter of the table is the first times −i.
func twiddles(n int) []complex128 {
	if n&(n-1) != 0 {
		panic("kernels: FFT length must be a power of two")
	}
	w := make([]complex128, n/2)
	q := (len(w) + 1) / 2
	for k := range w[:q] {
		sin, cos := math.Sincos(-2 * math.Pi * float64(k) / float64(n))
		w[k] = complex(cos, sin)
	}
	for k, v := range w[:len(w)-q] {
		w[q+k] = complex(imag(v), -real(v))
	}
	return w
}

// fftIter transforms a in place — bit-reversal, then the butterfly
// network level by level — reading its roots of unity from w, the table
// of a transform of 2·len(w) ≥ len(a) points.
func fftIter(a, w []complex128) {
	n := len(a)
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := 0; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if j > i {
			a[i], a[j] = a[j], a[i]
		}
	}
	for size := 2; size <= n; size <<= 1 {
		for start := 0; start < n; start += size {
			blk := a[start : start+size]
			butterflies(blk, blk[:size/2], blk[size/2:], w)
		}
	}
}

// butterflies writes the len(a)-point transform whose even- and
// odd-index halves are already transformed in even and odd; a's halves
// may be those same slices. w is as in fftIter.
func butterflies(a, even, odd, w []complex128) {
	half := len(a) / 2
	stride := len(w) / half
	lo, hi, even, odd := a[:half], a[half:2*half], even[:half], odd[:half]
	for k := range lo {
		u, v := even[k], odd[k]*w[k*stride]
		lo[k], hi[k] = u+v, u-v
	}
}

// fftNode is one task of the parallel transform's spawn tree: a leaf
// transforms its block, an inner node deinterleaves its block into its
// children's, spawns them, joins and combines.
type fftNode struct {
	a, w        []complex128 // w: the whole transform's twiddles, shared
	left, right *fftNode     // nil in a leaf
}

func (n *fftNode) Run(c *rt.Ctx) {
	if n.left == nil {
		fftIter(n.a, n.w)
		return
	}
	a, even, odd := n.a, n.left.a, n.right.a
	for i := range even {
		even[i] = a[2*i]
		odd[i] = a[2*i+1]
	}
	c.SpawnRunner(n.left)
	c.SpawnRunner(n.right)
	c.Sync()
	butterflies(a, even, odd, n.w)
}

// fftBuild lays the tree over a out in slab, in spawn order, and returns
// its root and the unused rest of slab. A child transforms its half of
// scratch in place with the matching half of a as its own scratch:
// disjoint between siblings, and the parent reads a again only after Sync.
func fftBuild(slab []fftNode, a, scratch, w []complex128) (*fftNode, []fftNode) {
	n := &slab[0]
	n.a, n.w, slab = a, w, slab[1:]
	if half := len(a) / 2; len(a) > fftCutoff {
		n.left, slab = fftBuild(slab, scratch[:half], a[:half], w)
		n.right, slab = fftBuild(slab, scratch[half:], a[half:], w)
	}
	return n, slab
}

// FFTTask returns a task computing the FFT of a in place using a parallel
// recursive decomposition: the even/odd halves are spawned until the
// cutoff, matching the simulator's wide FFT profile.
//
// The scratch buffer, the twiddle table and the whole spawn tree — one
// slab of fftNodes, not a closure per node, because a served job builds
// a tree to run it once — are made here, so re-running the task (the
// paper's repetition model, and the rt-overhead benchmarks) measures
// scheduling, not the allocator. The returned task owns its scratch: run
// it on one program at a time, like the in-place sort and factorisations.
func FFTTask(a []complex128) rt.Task {
	w := twiddles(len(a))
	slab := make([]fftNode, 2*max(1, len(a)/fftCutoff)-1) // a full binary tree over the leaf blocks
	root, _ := fftBuild(slab, a, make([]complex128, len(a)), w)
	return root.Run
}

// DFTNaive returns the discrete Fourier transform of a by the O(n²)
// definition — the verification oracle for small inputs.
func DFTNaive(a []complex128) []complex128 {
	n := len(a)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var sum complex128
		for t := 0; t < n; t++ {
			angle := -2 * math.Pi * float64(k) * float64(t) / float64(n)
			sum += a[t] * cmplx.Exp(complex(0, angle))
		}
		out[k] = sum
	}
	return out
}
