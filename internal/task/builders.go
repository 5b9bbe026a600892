package task

// Builders for the recurring graph shapes. The workload package composes
// these into the paper's eight benchmarks; they are also handy for
// synthetic stress graphs in tests.

// The builders lay a graph out in slabs: the nodes of one level of the
// tree share one []Node, one []Stage and one []*Node, so building costs a
// few allocations a level instead of two a node. Every node is still its
// own object (Validate's tree rule holds), and every slice handed out is
// capped at its own length, so appending to a node's Stages or a stage's
// Children copies rather than writing into the slab slot next door.

// leaves returns n distinct single-stage nodes of work microseconds each.
func leaves(n int, work int64) []*Node {
	nodes, stages, out := make([]Node, n), make([]Stage, n), make([]*Node, n)
	for i := range out {
		stages[i].Work = work
		nodes[i].Stages = stages[i : i+1 : i+1]
		out[i] = &nodes[i]
	}
	return out
}

// forks returns one node per run of branch consecutive children, each
// what Fork(pre, post, run...) builds.
func forks(children []*Node, branch int, pre, post int64) []*Node {
	n, per := len(children)/branch, 1
	if post > 0 {
		per = 2
	}
	nodes, stages, out := make([]Node, n), make([]Stage, n*per), make([]*Node, n)
	for i := range out {
		st := stages[i*per : (i+1)*per : (i+1)*per]
		st[0] = Stage{Work: pre, Children: children[i*branch : (i+1)*branch : (i+1)*branch]}
		if post > 0 {
			st[1].Work = post
		}
		nodes[i].Stages = st
		out[i] = &nodes[i]
	}
	return out
}

// stagedFor returns a node with iters stages of serialWork microseconds,
// stage i spawning chunks leaves of leafWork(i) microseconds.
func stagedFor(iters, chunks int, serialWork int64, leafWork func(i int) int64) *Node {
	stages := make([]Stage, iters)
	all := leaves(iters*chunks, 0)
	for i := range stages {
		children := all[i*chunks : (i+1)*chunks : (i+1)*chunks]
		w := leafWork(i)
		for _, c := range children {
			c.Stages[0].Work = w
		}
		stages[i] = Stage{Work: serialWork, Children: children}
	}
	return Phases(stages...)
}

// ParallelFor returns a node spawning n leaves of leafWork microseconds
// each: a flat data-parallel loop with one final barrier.
func ParallelFor(n int, leafWork int64) *Node {
	return Fork(0, 0, leaves(n, leafWork)...)
}

// IterativeFor returns a node with iters stages, each spawning chunks
// leaves of leafWork microseconds plus serialWork microseconds of serial
// per-iteration work: the Heat/SOR/Jacobi shape.
func IterativeFor(iters, chunks int, leafWork, serialWork int64) *Node {
	return stagedFor(iters, chunks, serialWork, func(int) int64 { return leafWork })
}

// DivideAndConquer returns a balanced recursion: depth levels, branch
// children per node (values below 1 count as 1: a chain), leafWork at the
// leaves, and splitWork/mergeWork of serial work around each internal
// node's recursion (the Mergesort/FFT shape). depth = 0 yields a single
// leaf.
func DivideAndConquer(depth, branch int, leafWork, splitWork, mergeWork int64) *Node {
	if branch < 1 {
		branch = 1
	}
	width := 1
	for i := 0; i < depth; i++ {
		width *= branch
	}
	// Every level of a balanced tree is uniform, so build it from the
	// leaves up, a level at a time.
	level := leaves(width, leafWork)
	for ; depth > 0; depth-- {
		level = forks(level, branch, splitWork, mergeWork)
	}
	return level[0]
}

// ShrinkingFor returns a node with iters stages where stage i spawns
// chunks leaves of leafWork*(iters-i)/iters microseconds (at least 1): the
// work shrinks linearly from leafWork in the first stage to leafWork/iters
// in the last — the triangular profile of Gaussian elimination and LU,
// where each elimination step touches a smaller trailing matrix.
func ShrinkingFor(iters, chunks int, leafWork, serialWork int64) *Node {
	return stagedFor(iters, chunks, serialWork, func(i int) int64 {
		frac := float64(iters-i) / float64(iters)
		return max(int64(float64(leafWork)*frac), 1)
	})
}

// Serial returns a purely sequential node of the given work — useful to
// model serial sections between parallel phases.
func Serial(work int64) *Node { return Leaf(work) }

// Chain composes nodes so they run strictly one after another: a parent
// with one stage per element, each spawning exactly that element.
func Chain(nodes ...*Node) *Node {
	stages := make([]Stage, len(nodes))
	for i, n := range nodes {
		stages[i] = Stage{Children: []*Node{n}}
	}
	return Phases(stages...)
}

// Imbalanced returns a two-child fork where the left subtree carries frac
// of the work as one serial lump and the right subtree is a ParallelFor
// over the rest — a workload with a long sequential tail that cannot use
// many cores, used to exercise demand-driven core release. chunks below 1
// count as 1.
func Imbalanced(totalWork int64, frac float64, chunks int) *Node {
	chunks = max(chunks, 1)
	serial := int64(float64(totalWork) * frac)
	leaf := max((totalWork-serial)/int64(chunks), 1)
	return Fork(0, 0, Serial(serial), ParallelFor(chunks, leaf))
}
