package kernels

import "dws/internal/rt"

// msCutoff is the subarray size below which the parallel mergesort sorts
// sequentially.
const msCutoff = 2048

// MergesortSeq sorts a in place with a sequential top-down merge sort.
func MergesortSeq(a []int32) {
	buf := make([]int32, len(a))
	msSeq(a, buf)
}

func msSeq(a, buf []int32) {
	if len(a) <= 32 {
		insertion(a)
		return
	}
	mid := len(a) / 2
	msSeq(a[:mid], buf[:mid])
	msSeq(a[mid:], buf[mid:])
	merge(a, mid, buf)
}

func insertion(a []int32) {
	for i := 1; i < len(a); i++ {
		v := a[i]
		j := i - 1
		for j >= 0 && a[j] > v {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = v
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
	left, right *msNode // nil in a leaf
}

func (n *msNode) Run(c *rt.Ctx) {
	if n.left == nil {
		msSeq(n.a, n.buf)
		return
	}
	c.SpawnRunner(n.left)
	c.SpawnRunner(n.right)
	c.Sync()
	merge(n.a, len(n.left.a), n.buf)
}

// msBuild lays the tree over a out in slab, in spawn order, and returns
// its root and the unused rest of slab.
func msBuild(slab []msNode, a, buf []int32) (*msNode, []msNode) {
	n := &slab[0]
	n.a, n.buf, slab = a, buf, slab[1:]
	if len(a) > msCutoff {
		mid := len(a) / 2
		n.left, slab = msBuild(slab, a[:mid], buf[:mid])
		n.right, slab = msBuild(slab, a[mid:], buf[mid:])
	}
	return n, slab
}

// MergesortTask returns a task sorting a in place: recursive halves are
// spawned in parallel; each merge is sequential, which caps parallelism
// near the root exactly like the paper's p-8 (and the simulator profile).
// The merge buffer and the whole spawn tree — one slab of msNodes, not a
// closure per node, because a served job builds a tree to run it once —
// are made here, so re-running the task allocates nothing (run it on one
// program at a time).
func MergesortTask(a []int32) rt.Task {
	nodes := 1 // of a full tree down to where the larger half fits a leaf
	for m := len(a); m > msCutoff; m = (m + 1) / 2 {
		nodes = 2*nodes + 1
	}
	root, _ := msBuild(make([]msNode, nodes), a, make([]int32, len(a)))
	return root.Run
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
