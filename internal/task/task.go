// Package task defines the fork-join task-graph model shared by the
// workload generators, the simulator and the analysis helpers.
//
// A computation is a tree of Nodes. A Node executes a sequence of Stages;
// each stage performs Work microseconds of serial computation, then spawns
// the stage's children and waits for all of them to finish (a join barrier)
// before the next stage begins. The node completes when its last stage's
// children have joined.
//
// This shape expresses the two structures the paper's benchmarks use:
//
//   - divide and conquer (FFT, Cholesky, LU, Mergesort …): a node with one
//     stage {split work, recursive children} and a final stage {merge work};
//   - iterative barriered loops (Heat, SOR, GE …): a node with one stage per
//     iteration, each spawning that iteration's chunk leaves.
//
// Graphs are immutable once built; the simulator attaches its own per-run
// execution state, so one Graph can be executed many times (the paper's
// Fig. 3 methodology re-runs each program repeatedly).
package task

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// Stage is one serial-work + parallel-spawn step of a Node.
type Stage struct {
	// Work is the serial computation, in microseconds of ideal (warm-cache,
	// uncontended) execution, the node performs before spawning this
	// stage's children.
	Work int64
	// Children are spawned together after Work completes; the next stage
	// begins only after all of them have finished (a join).
	Children []*Node
}

// Node is one task of a fork-join computation. Nodes are immutable after
// graph construction.
type Node struct {
	// Stages execute in order; see Stage.
	Stages []Stage
	// Label is an optional human-readable tag used in traces.
	Label string
}

// Graph is a complete computation: a root node plus the workload metadata
// the machine model needs.
type Graph struct {
	// Name identifies the workload (e.g. "FFT").
	Name string
	// Root is the entry task.
	Root *Node
	// MemIntensity in [0,1] scales cache-related penalties in the machine
	// model: 0 = pure compute, 1 = fully memory-bound.
	MemIntensity float64
	// FootprintMB is the approximate working-set size, informational.
	FootprintMB float64

	// valid records that Validate has accepted the graph. Graphs are
	// immutable once built, so a later replay takes the verdict instead of
	// walking the nodes again; it is atomic because one prepared trace is
	// replayed from several goroutines at once.
	valid atomic.Bool
}

// Leaf returns a single-stage node performing work microseconds.
func Leaf(work int64) *Node {
	return &Node{Stages: []Stage{{Work: work}}}
}

// Fork returns a node that performs pre work, spawns children, joins, and
// performs post work.
func Fork(pre, post int64, children ...*Node) *Node {
	if post > 0 || len(children) == 0 {
		return &Node{Stages: []Stage{{Work: pre, Children: children}, {Work: post}}}
	}
	return &Node{Stages: []Stage{{Work: pre, Children: children}}}
}

// Phases returns a node executing the given stages in order, i.e. a
// sequence of barriered parallel phases.
func Phases(stages ...Stage) *Node {
	return &Node{Stages: stages}
}

// Metrics are the classic work/span measures of a graph.
type Metrics struct {
	// Work is T1: total microseconds over all stages of all nodes.
	Work int64
	// Span is T∞: the critical path length in microseconds.
	Span int64
	// Nodes is the number of nodes in the graph.
	Nodes int
	// MaxDepth is the deepest nesting of nodes.
	MaxDepth int
}

// Parallelism returns T1/T∞, the average parallelism of the graph.
func (m Metrics) Parallelism() float64 {
	if m.Span == 0 {
		return 0
	}
	return float64(m.Work) / float64(m.Span)
}

func (m Metrics) String() string {
	return fmt.Sprintf("work=%dµs span=%dµs nodes=%d depth=%d parallelism=%.1f",
		m.Work, m.Span, m.Nodes, m.MaxDepth, m.Parallelism())
}

// Analyze computes the Metrics of g. It panics on a nil root; call
// Validate first for graphs from untrusted builders.
func Analyze(g *Graph) Metrics {
	m := Metrics{}
	var walk func(n *Node, depth int) int64 // returns span of n
	walk = func(n *Node, depth int) int64 {
		m.Nodes++
		if depth > m.MaxDepth {
			m.MaxDepth = depth
		}
		var span int64
		for _, st := range n.Stages {
			m.Work += st.Work
			span += st.Work
			var maxChild int64
			for _, c := range st.Children {
				if s := walk(c, depth+1); s > maxChild {
					maxChild = s
				}
			}
			span += maxChild
		}
		return span
	}
	m.Span = walk(g.Root, 1)
	return m
}

// Validation errors.
var (
	ErrNilRoot      = errors.New("task: graph has nil root")
	ErrNilChild     = errors.New("task: nil child node")
	ErrNegativeWork = errors.New("task: negative stage work")
	ErrShared       = errors.New("task: node appears more than once (graph must be a tree)")
	ErrNoStages     = errors.New("task: node has no stages")
	ErrIntensity    = errors.New("task: MemIntensity outside [0,1]")
)

// Validate checks structural invariants: the graph is a tree (no shared or
// nil nodes), every node has at least one stage, all work is non-negative,
// and metadata is in range.
func Validate(g *Graph) error {
	var v Validator
	return v.Validate(g)
}

// Validator runs Validate's checks over a stream of graphs — a replay's
// jobs — without paying for each graph from scratch: a graph that any
// Validate call has accepted is not walked again (graphs are immutable
// once built, and the verdict is kept on the Graph), and the visited set
// is emptied and reused from one graph to the next instead of grown anew.
// The zero value is ready to use; a Validator is not safe for concurrent
// use, though several may validate the same graph at once.
type Validator struct {
	seen map[*Node]struct{} // nodes of the graph being walked
}

// Validate reports the first violation found in g, exactly as the
// package-level Validate does.
func (v *Validator) Validate(g *Graph) error {
	if g == nil || g.Root == nil {
		return ErrNilRoot
	}
	if g.valid.Load() {
		return nil
	}
	if g.MemIntensity < 0 || g.MemIntensity > 1 {
		return fmt.Errorf("%w: %v", ErrIntensity, g.MemIntensity)
	}
	if v.seen == nil {
		v.seen = make(map[*Node]struct{})
	}
	clear(v.seen)
	if err := v.walk(g.Root); err != nil {
		return err
	}
	g.valid.Store(true)
	return nil
}

func (v *Validator) walk(n *Node) error {
	if n == nil {
		return ErrNilChild
	}
	if _, dup := v.seen[n]; dup {
		return fmt.Errorf("%w: %q", ErrShared, n.Label)
	}
	v.seen[n] = struct{}{}
	if len(n.Stages) == 0 {
		return fmt.Errorf("%w: %q", ErrNoStages, n.Label)
	}
	for i := range n.Stages {
		st := &n.Stages[i]
		if st.Work < 0 {
			return fmt.Errorf("%w: %d in %q", ErrNegativeWork, st.Work, n.Label)
		}
		for _, c := range st.Children {
			if err := v.walk(c); err != nil {
				return err
			}
		}
	}
	return nil
}

// Walk visits every node of the graph in depth-first spawn order, calling
// fn with the node and its depth (root = 1). It stops early if fn returns
// false.
func Walk(g *Graph, fn func(n *Node, depth int) bool) {
	var walk func(n *Node, depth int) bool
	walk = func(n *Node, depth int) bool {
		if !fn(n, depth) {
			return false
		}
		for _, st := range n.Stages {
			for _, c := range st.Children {
				if !walk(c, depth+1) {
					return false
				}
			}
		}
		return true
	}
	walk(g.Root, 1)
}
