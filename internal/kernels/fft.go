package kernels

import (
	"math"
	"math/bits"
	"math/cmplx"
	"sync"

	"dws/internal/rt"
)

// fftCutoff is the block size at and below which the parallel FFT stops
// splitting: a leaf transforms a block of at most fftCutoff points.
const fftCutoff = 256

// FFTSeq performs an in-place iterative radix-2 Cooley–Tukey FFT.
// len(a) must be a power of two.
func FFTSeq(a []complex128) {
	w := twiddles(len(a))
	shift := 64 - uint(bits.TrailingZeros(uint(len(a))))
	for i := range a {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if j > i {
			a[i], a[j] = a[j], a[i]
		}
	}
	fftLevels(a, w)
}

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

// fftLevels runs the butterfly network over a, already in bit-reversed
// order, level by level from width 2 to len(a), reading its roots of
// unity from w, the table of a transform of 2·len(w) ≥ len(a) points.
func fftLevels(a, w []complex128) {
	for size := 2; size <= len(a); size <<= 1 {
		for start := 0; start < len(a); start += size {
			blk := a[start : start+size]
			butterflies(blk, blk[:size/2], blk[size/2:], w)
		}
	}
}

// butterflies writes the len(a)-point transform whose even- and
// odd-index halves are already transformed in even and odd; a's halves
// may be those same slices. w is as in fftLevels.
func butterflies(a, even, odd, w []complex128) {
	half := len(a) / 2
	stride := len(w) / half
	lo, hi, even, odd := a[:half], a[half:2*half], even[:half], odd[:half]
	for k := range lo {
		u, v := even[k], odd[k]*w[k*stride]
		lo[k], hi[k] = u+v, u-v
	}
}

// fftNode is one task of the in-place spawn tree over the output; a is
// its block, at offset off. A leaf gathers a[i] = in[bitrev(off+i)] and
// runs the levels over a; an inner node spawns its halves, joins and
// runs one level: no deinterleave, FFTSeq's butterflies in its order.
type fftNode struct {
	a, in, w    []complex128 // in, w: the whole input and twiddles, only read
	off         int
	left, right *fftNode // nil in a leaf
}

func (n *fftNode) Run(c *rt.Ctx) {
	if n.left == nil {
		shift := 64 - uint(bits.TrailingZeros(uint(len(n.in))))
		for i := range n.a {
			n.a[i] = n.in[bits.Reverse64(uint64(n.off+i))>>shift]
		}
		fftLevels(n.a, n.w)
		return
	}
	c.SpawnRunner(n.left)
	c.SpawnRunner(n.right)
	c.Sync()
	butterflies(n.a, n.a[:len(n.a)/2], n.a[len(n.a)/2:], n.w)
}

// fftBuild lays the tree over a, at offset off, out in slab in spawn
// order and returns its root and the unused rest of slab. Siblings own
// disjoint halves of a; the parent reads a only after Sync.
func fftBuild(slab []fftNode, a, in, w []complex128, off int) (*fftNode, []fftNode) {
	n := &slab[0]
	n.a, n.in, n.w, n.off, slab = a, in, w, off, slab[1:]
	if half := len(a) / 2; len(a) > fftCutoff {
		n.left, slab = fftBuild(slab, a[:half], in, w, off)
		n.right, slab = fftBuild(slab, a[half:], in, w, off+half)
	}
	return n, slab
}

// FFTTask returns a task computing the FFT of a in place using a parallel
// recursive decomposition: the halves are spawned down to blocks of
// fftCutoff points, matching the simulator's wide FFT profile.
//
// The scratch buffer, the twiddle table and the whole spawn tree — one
// slab of fftNodes, not a closure per node, because a served job builds
// a tree to run it once — are made here, so re-running the task (the
// paper's repetition model, and the rt-overhead benchmarks) measures
// scheduling, not the allocator. A run copies a to the scratch, whence
// the leaves gather back into a. The task owns its scratch: run it on
// one program at a time, like the in-place sort and factorisations.
// The catalog's FFT job (catalogFFT) runs the same tree, but gathers
// from the input all jobs of a length share and recycles its trees.
func FFTTask(a []complex128) rt.Task {
	scratch := make([]complex128, len(a))
	root := fftTree(a, scratch, twiddles(len(a)))
	return func(c *rt.Ctx) {
		copy(scratch, a)
		root.Run(c)
	}
}

// fftTree lays the spawn tree transforming in into out; root.a is out.
func fftTree(out, in, w []complex128) *fftNode {
	slab := make([]fftNode, 2*max(1, len(out)/fftCutoff)-1) // a full binary tree over the leaf blocks
	root, _ := fftBuild(slab, out, in, w, 0)
	return root
}

// fftShared is what every catalog FFT job of one length has in common.
type fftShared struct {
	once  sync.Once
	in, w []complex128 // the job's input and twiddles(len(in)), only read
	task  rt.Task      // s.run, bound once: a method value per NewTask would allocate
	trees sync.Pool    // *fftNode: a tree over an output buffer of its own
}

// fftServed holds the shared state of the lengths 2⁰…2¹⁸, built on a
// length's first job. dwsd caps size at 1.0 and pow2(1<<18, 1.0) = 2¹⁸,
// so a served job always has a slot: at most 19 inputs and tables.
var fftServed [19]fftShared

// fftRan, when a test sets it, is handed each catalog FFT job's output
// before its buffer goes back to the pool.
var fftRan func(out []complex128)

// catalogFFT returns the catalog's FFT job of length n: the transform of
// RandComplex(n, 7), the same input every run. Below 2¹⁹ the job's
// leaves gather from its length's shared input, and its tree (one
// n-point buffer) comes from the length's pool, so after a length's
// first job NewTask allocates nothing, and runs of one task may overlap.
// A longer job (only a CLI asks for size > 1.0) builds its input and
// table per job.
func catalogFFT(n int) rt.Task {
	k := bits.TrailingZeros(uint(n))
	if k >= len(fftServed) {
		s := &fftShared{in: RandComplex(n, 7), w: twiddles(n)}
		return s.run
	}
	s := &fftServed[k]
	s.once.Do(func() {
		s.in, s.w = RandComplex(n, 7), twiddles(n)
		s.task = s.run
	})
	return s.task
}

// run transforms s.in, which nothing writes, into a tree from s.trees
// and returns the tree afterwards: concurrent runs share no buffer.
func (s *fftShared) run(c *rt.Ctx) {
	root, _ := s.trees.Get().(*fftNode)
	if root == nil {
		root = fftTree(make([]complex128, len(s.in)), s.in, s.w)
	}
	root.Run(c)
	if fftRan != nil {
		fftRan(root.a)
	}
	s.trees.Put(root)
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
