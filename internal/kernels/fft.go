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

// FFTSeq performs an in-place iterative Cooley–Tukey FFT: a bit-reversal
// swap pass, then fftLevels. len(a) must be a power of two.
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

// twiddles returns the roots of unity every level of an n-point
// transform reads, stacked by level: the level of butterflies of
// half-width h reads w[h : 2h] in order, w[h+k] = exp(−πik/h), so a
// block of any length ≤ n reads the same table. The top level,
// w[n/2 : n], is filled by Sincos over its first quarter and its second
// quarter is the first times −i; every lower level is every other entry
// of the one above, copied, so each level reads the values (and rounds
// as) a single n/2-entry table read at stride n/2h would.
func twiddles(n int) []complex128 {
	if n&(n-1) != 0 {
		panic("kernels: FFT length must be a power of two")
	}
	w := make([]complex128, n)
	top := w[n/2:]
	q := (len(top) + 1) / 2
	for k := range top[:q] {
		sin, cos := math.Sincos(-2 * math.Pi * float64(k) / float64(n))
		top[k] = complex(cos, sin)
	}
	for k, v := range top[:len(top)-q] {
		top[q+k] = complex(imag(v), -real(v))
	}
	for h := n / 4; h >= 1; h /= 2 {
		for k := range w[h : 2*h] {
			w[h+k] = w[2*h+2*k]
		}
	}
	return w
}

// fftLevels runs the butterfly network over a, already in bit-reversed
// order, level by level from width 2 to len(a), reading its roots of
// unity from w, the stacked table of a transform of len(w) ≥ len(a)
// points. Widths 2, 4 and 8 run as one radix-8 pass when len(a) ≥ 8.
func fftLevels(a, w []complex128) {
	size := 2
	if len(a) >= 8 {
		radix8(a, w[5], w[7])
		size = 16
	}
	for ; size <= len(a); size <<= 1 {
		tw := w[size/2 : size]
		for start := 0; start < len(a); start += size {
			butterflies(a[start:start+size], tw)
		}
	}
}

// radix8 runs the butterflies of widths 2, 4 and 8 over each 8-point
// block of a in one pass, in registers. Their twiddles are 1, w8 =
// exp(−iπ/4), −i and w83 = exp(−3iπ/4); a product by 1 is skipped and one
// by −i is a swap and a negation, which are exact.
func radix8(a []complex128, w8, w83 complex128) {
	for s := 0; s+8 <= len(a); s += 8 {
		b := a[s : s+8 : s+8]
		b0, b1 := b[0]+b[1], b[0]-b[1]
		b2, b3 := b[2]+b[3], b[2]-b[3]
		b4, b5 := b[4]+b[5], b[4]-b[5]
		b6, b7 := b[6]+b[7], b[6]-b[7]

		v := mulNegI(b3)
		c0, c2 := b0+b2, b0-b2
		c1, c3 := b1+v, b1-v
		v = mulNegI(b7)
		c4, c6 := b4+b6, b4-b6
		c5, c7 := b5+v, b5-v

		b[0], b[4] = c0+c4, c0-c4
		v = c5 * w8
		b[1], b[5] = c1+v, c1-v
		v = mulNegI(c6)
		b[2], b[6] = c2+v, c2-v
		v = c7 * w83
		b[3], b[7] = c3+v, c3-v
	}
}

// mulNegI returns −i·x.
func mulNegI(x complex128) complex128 { return complex(imag(x), -real(x)) }

// butterflies writes the len(a)-point transform whose even- and
// odd-index halves are already transformed in a's halves; w is the
// level's len(a)/2 twiddles, as in fftLevels.
func butterflies(a, w []complex128) {
	half := len(a) / 2
	lo, hi, w := a[:half], a[half:], w[:half]
	hi = hi[:len(w)]
	for k := range w {
		u, v := lo[k], hi[k]*w[k]
		lo[k], hi[k] = u+v, u-v
	}
}

// gather fills a, the leaf block at offset off of the transform of in,
// with its inputs in bit-reversed order: a[i] = in[rev_m(off+i)] for
// len(in) = 2ᵐ. As len(a) = 2ˡ divides off, that index is
// rev_l(i)·2^(m−l) + rev_(m−l)(off>>l): one base for the leaf, plus one
// byte reversal per element, because l ≤ 8 (len(a) ≤ fftCutoff) and
// bits.Reverse8(i) = rev_l(i)·2^(8−l) exactly.
func gather(a, in []complex128, off int) {
	m := uint(bits.TrailingZeros(uint(len(in))))
	l := uint(bits.TrailingZeros(uint(len(a))))
	base := int(bits.Reverse64(uint64(off>>l)) >> (64 - (m - l)))
	for i := range a {
		a[i] = in[int(bits.Reverse8(uint8(i)))<<m>>8+base]
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
		gather(n.a, n.in, n.off)
		fftLevels(n.a, n.w)
		return
	}
	c.SpawnRunner(n.left)
	c.SpawnRunner(n.right)
	c.Sync()
	butterflies(n.a, n.w[len(n.a)/2:len(n.a)])
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
