package kernels

import (
	"sync"
	"sync/atomic"

	"dws/internal/rt"
)

// msCutoff is the largest block a leaf sorts: 2¹⁴ keys, the power of two
// at or above the paper's p-8 grain (4×10⁶ keys over 256 leaves, 15 625
// each). A full-size job (catalog Mergesort(1.0)) then records exactly
// workload.Mergesort's tree: 256 leaves, 511 nodes, depth 9. A leaf is
// linear (radixSort) while each level above it is one more pass over the
// keys (merge), so a coarser grain is also fewer merge levels.
const msCutoff = 1 << 14

// MergesortSeq sorts a in place with MergesortTask's algorithm on one
// core: halves split down to blocks of at most msCutoff keys, each block
// radix-sorted, the halves merged back up in the same order (200 000 keys
// are 16 blocks under four merge levels). The two are one sort, as FFTSeq
// and FFTTask are one transform.
func MergesortSeq(a []int32) {
	msSort(a, make([]int32, len(a)))
}

func msSort(a, buf []int32) {
	if len(a) <= msCutoff {
		radixSort(a, buf)
		return
	}
	mid := len(a) / 2
	msSort(a[:mid], buf[:mid])
	msSort(a[mid:], buf[mid:])
	merge(a, mid, buf)
}

// radixSort sorts a through buf, which must be at least len(a) long, with
// an LSD radix sort: four stable 8-bit passes, least significant digit
// first. The key is the value with its sign bit flipped, so negative
// values order first. One read pass counts all four digits; each pass
// then turns its counts into starting offsets and scatters a → buf → a →
// buf → a, which with an even number of passes ends in a with no copy.
// A leaf's block is linear work instead of a comparison sort's n log n.
func radixSort(a, buf []int32) {
	buf = buf[:len(a)]
	var count [4][256]uint32
	for _, v := range a {
		k := uint32(v) ^ 0x80000000
		count[0][k&0xff]++
		count[1][k>>8&0xff]++
		count[2][k>>16&0xff]++
		count[3][k>>24]++
	}
	src, dst := a, buf
	for d := range count {
		c := &count[d]
		var sum uint32
		for i, n := range c {
			c[i] = sum
			sum += n
		}
		shift := 8 * uint(d)
		for _, v := range src {
			b := (uint32(v) ^ 0x80000000) >> shift & 0xff
			dst[c[b]] = v
			c[b]++
		}
		src, dst = dst, src
	}
}

// merge merges the sorted runs a[:mid] and a[mid:] in place through buf,
// which must be at least len(a) long (a shorter one panics on the slice
// bound below; nothing is half-merged). Both runs are copied out, then two
// independent chains run at once: one fills a from the front with the
// smaller of the two heads, the other from the back with the larger of
// the two tails. A single chain is load → compare → select → index add,
// each element waiting on the last; two of them overlap. Ties go to the
// left run at the front and to the right run at the back: that is one
// total order (key, then run, then position) read from its two ends, so
// after s steps the chains hold its first s and last s elements — disjoint
// while 2s ≤ len(a), and no run is exhausted inside the first
// min(mid, len(a)-mid) steps, so that loop needs no bounds test. The
// selects compile to conditional moves; on random keys a branch there
// mispredicts every other element.
func merge(a []int32, mid int, buf []int32) {
	n := len(a)
	copy(buf[:n], a)
	left, right := buf[:mid], buf[mid:n]
	steps := min(len(left), len(right))
	i, j, k := 0, 0, 0
	ie, je, ke := len(left)-1, len(right)-1, n-1
	for ; k < steps; k++ {
		x, y := left[i], right[j]
		v, di := y, 0
		if x <= y {
			v, di = x, 1
		}
		a[k] = v
		i += di
		j += 1 - di

		xe, ye := left[ie], right[je]
		ve, de := xe, 0
		if xe <= ye {
			ve, de = ye, 1
		}
		a[ke] = ve
		je -= de
		ie -= 1 - de
		ke--
	}
	// What the chains left, a[k:ke+1], is the merge of left[i:ie+1] and
	// right[j:je+1]: at most one element when the runs are balanced.
	left, right = left[i:ie+1], right[j:je+1]
	i, j = 0, 0
	for i < len(left) && j < len(right) {
		x, y := left[i], right[j]
		v, di := y, 0
		if x <= y {
			v, di = x, 1
		}
		a[k] = v
		i += di
		j += 1 - di
		k++
	}
	k += copy(a[k:], left[i:])
	copy(a[k:], right[j:])
}

// msNode is one task of the parallel sort's spawn tree: a leaf sorts its
// block, an inner node spawns its halves, joins and merges them.
type msNode struct {
	a, buf      []int32
	keys        []int32 // a catalog job's key block (msKeys), or nil: a is the input
	off         int     // a's first key index in a catalog job
	left, right *msNode // nil in a leaf
}

func (n *msNode) Run(c *rt.Ctx) {
	if n.left == nil {
		if n.keys != nil {
			msFill(n.a, n.keys, n.off)
		}
		radixSort(n.a, n.buf)
		return
	}
	c.SpawnRunner(n.left)
	c.SpawnRunner(n.right)
	c.Sync()
	merge(n.a, len(n.left.a), n.buf)
}

// msBuild lays the tree over a — keys off… of keys when keys is not nil —
// out in slab, in spawn order, and returns its root and the unused rest of
// slab. Every node is written whole: a recycled slab's leaf may have been
// an inner node of the last tree.
func msBuild(slab []msNode, a, buf, keys []int32, off int) (*msNode, []msNode) {
	n := &slab[0]
	*n, slab = msNode{a: a, buf: buf, keys: keys, off: off}, slab[1:]
	if len(a) > msCutoff {
		mid := len(a) / 2
		n.left, slab = msBuild(slab, a[:mid], buf[:mid], keys, off)
		n.right, slab = msBuild(slab, a[mid:], buf[mid:], keys, off+mid)
	}
	return n, slab
}

// msNodes is the slab length a tree over n keys needs: that of a full tree
// down to where the larger half fits a leaf. It never falls as n grows.
func msNodes(n int) int {
	nodes := 1
	for m := n; m > msCutoff; m = (m + 1) / 2 {
		nodes = 2*nodes + 1
	}
	return nodes
}

// MergesortTask returns a task sorting a in place: recursive halves are
// spawned in parallel down to blocks of at most msCutoff keys, each of
// which a leaf radix-sorts; each merge is sequential, which caps
// parallelism near the root exactly like the paper's p-8. At 4×10⁶ keys
// the tree is the simulator's p-8 node for node (TestMergesortIsP8).
// MergesortSeq is the same sort on one core.
// The merge buffer and the whole spawn tree — one slab of msNodes, not a
// closure per node, because a served job builds a tree to run it once —
// are made here, so re-running the task allocates nothing (run it on one
// program at a time). The catalog's Mergesort job (catalogMergesort) runs
// the same tree over keys its leaves write and memory it recycles.
func MergesortTask(a []int32) rt.Task {
	root, _ := msBuild(make([]msNode, msNodes(len(a))), a, make([]int32, len(a)), nil, 0)
	return root.Run
}

// msKeys is the key block every catalog Mergesort job reads and none
// writes: RandSlice(1<<16, 11), 256 KB, built on the first job.
var msKeys = sync.OnceValue(func() []int32 { return RandSlice(1<<16, 11) })

// msFill writes a catalog job's keys off, off+1, … into a. Key i is
// keys[i mod 2¹⁶] xor (i div 2¹⁶)·0x9e3779b9, so a job of at most 2¹⁶ keys
// sorts exactly RandSlice(n, 11) (RandSlice(n, s) is a prefix of
// RandSlice(N, s)) and a longer one sorts the block again under other
// high bits. Each 2¹⁶-key span is one xor loop.
func msFill(a, keys []int32, off int) {
	for len(a) > 0 {
		span := keys[off&0xffff:]
		span = span[:min(len(span), len(a))]
		x := int32(uint32(off>>16) * 0x9e3779b9)
		dst := a[:len(span)]
		for i, k := range span {
			dst[i] = k ^ x
		}
		a, off = a[len(span):], off+len(span)
	}
}

// msArena is a catalog Mergesort job's memory for up to len(data)/2 keys:
// data holds the keys, then the merge buffer, and slab a tree over them.
// data is mapped outside the Go heap (mem; nil when the heap had to
// serve): kept between jobs on the heap, it would count twice towards the
// collector's heap goal. The slab (96 bytes a node, 3 KB at 200 000
// keys) stays on the heap, as its nodes hold pointers.
type msArena struct {
	data []int32
	mem  []byte
	slab []msNode
}

// msCache holds the arena the last catalog Mergesort job gave back, or
// nil while a job holds it: one slot, so at most one arena outlives its
// job.
var msCache atomic.Pointer[msArena]

// msTake hands a job an arena of its own for n keys: the cached one, or,
// when the slot is empty or its arena is too small, a new one (the small
// one is released, as the job holds it alone).
func msTake(n int) *msArena {
	ar := msCache.Swap(nil)
	if ar != nil && len(ar.data) >= 2*n {
		return ar
	}
	if ar != nil {
		freeKeys(ar.mem)
	}
	data, mem := allocKeys(2 * n)
	return &msArena{data: data, mem: mem, slab: make([]msNode, msNodes(n))}
}

// msGive puts a job's arena in the slot, or releases it if another job's
// got there first.
func msGive(ar *msArena) {
	if !msCache.CompareAndSwap(nil, ar) {
		freeKeys(ar.mem)
	}
}

// msRan, when a test sets it, is handed each catalog Mergesort job's
// sorted keys before its arena is given back.
var msRan func(out []int32)

// catalogMergesort returns the catalog's Mergesort job of n keys: the sort
// of msFill's keys 0…n-1, which for n ≤ 2¹⁶ are RandSlice(n, 11). Its
// leaves fill their blocks from the shared key block, and its keys,
// buffer and tree live in an arena taken when it runs and given back
// after, so NewTask allocates only the task and runs of one task may
// overlap.
func catalogMergesort(n int) rt.Task {
	return func(c *rt.Ctx) {
		ar := msTake(n)
		root, _ := msBuild(ar.slab, ar.data[:n], ar.data[n:2*n], msKeys(), 0)
		root.Run(c)
		if msRan != nil {
			msRan(root.a)
		}
		msGive(ar)
	}
}

// IsSorted reports whether a is non-decreasing.
func IsSorted(a []int32) bool {
	for i := 1; i < len(a); i++ {
		if a[i-1] > a[i] {
			return false
		}
	}
	return true
}
