package task

import (
	"fmt"
	"testing"
)

// The builders as they were before they drew nodes from slabs: one Leaf,
// one Fork, one Phases call per node. They are the reference the slab
// builders are compared against, stage for stage.

func refParallelFor(n int, leafWork int64) *Node {
	children := make([]*Node, n)
	for i := range children {
		children[i] = Leaf(leafWork)
	}
	return Fork(0, 0, children...)
}

func refStagedFor(iters, chunks int, serialWork int64, leafWork func(i int) int64) *Node {
	stages := make([]Stage, iters)
	for i := range stages {
		children := make([]*Node, chunks)
		for j := range children {
			children[j] = Leaf(leafWork(i))
		}
		stages[i] = Stage{Work: serialWork, Children: children}
	}
	return Phases(stages...)
}

func refIterativeFor(iters, chunks int, leafWork, serialWork int64) *Node {
	return refStagedFor(iters, chunks, serialWork, func(int) int64 { return leafWork })
}

func refShrinkingFor(iters, chunks int, leafWork, serialWork int64) *Node {
	return refStagedFor(iters, chunks, serialWork, func(i int) int64 {
		frac := float64(iters-i) / float64(iters)
		w := int64(float64(leafWork) * frac)
		if w < 1 {
			w = 1
		}
		return w
	})
}

func refDivideAndConquer(depth, branch int, leafWork, splitWork, mergeWork int64) *Node {
	if depth <= 0 {
		return Leaf(leafWork)
	}
	children := make([]*Node, branch)
	for i := range children {
		children[i] = refDivideAndConquer(depth-1, branch, leafWork, splitWork, mergeWork)
	}
	return Fork(splitWork, mergeWork, children...)
}

// sameLayout reports the first place two trees differ in stage count,
// stage work or child count, or "" when they are laid out alike.
func sameLayout(got, want *Node, path string) string {
	if len(got.Stages) != len(want.Stages) {
		return fmt.Sprintf("%s: %d stages, want %d", path, len(got.Stages), len(want.Stages))
	}
	for i := range want.Stages {
		g, w := got.Stages[i], want.Stages[i]
		if g.Work != w.Work {
			return fmt.Sprintf("%s stage %d: work %d, want %d", path, i, g.Work, w.Work)
		}
		if len(g.Children) != len(w.Children) {
			return fmt.Sprintf("%s stage %d: %d children, want %d", path, i, len(g.Children), len(w.Children))
		}
		for j := range w.Children {
			if d := sameLayout(g.Children[j], w.Children[j], fmt.Sprintf("%s/%d.%d", path, i, j)); d != "" {
				return d
			}
		}
	}
	return ""
}

// checkIsolated requires every node under root to be its own object and
// every slice a builder handed out to end at its own length: appending a
// stage to one node, or a child to one stage, must copy rather than write
// into the slab slot of the next.
func checkIsolated(t *testing.T, name string, root *Node) {
	t.Helper()
	seen := map[*Node]bool{}
	Walk(&Graph{Root: root}, func(n *Node, _ int) bool {
		if seen[n] {
			t.Errorf("%s: node %p reached twice", name, n)
		}
		seen[n] = true
		if len(n.Stages) != cap(n.Stages) {
			t.Errorf("%s: a node's Stages has len %d cap %d; an append would reach its neighbour",
				name, len(n.Stages), cap(n.Stages))
		}
		for i, st := range n.Stages {
			if len(st.Children) != cap(st.Children) {
				t.Errorf("%s: stage %d's Children has len %d cap %d; an append would reach its neighbour",
					name, i, len(st.Children), cap(st.Children))
			}
		}
		return !t.Failed()
	})
}

// TestSlabBuildersMatchReference compares each slab builder with its
// one-allocation-per-node reference at the edges of every size argument.
func TestSlabBuildersMatchReference(t *testing.T) {
	edges := []int{0, 1, 2, 33}
	check := func(name string, got, want *Node) {
		t.Helper()
		if d := sameLayout(got, want, "root"); d != "" {
			t.Errorf("%s: %s", name, d)
		}
		checkIsolated(t, name, got)
	}
	for _, n := range edges {
		check(fmt.Sprintf("ParallelFor(%d)", n), ParallelFor(n, 25), refParallelFor(n, 25))
	}
	for _, iters := range edges {
		for _, chunks := range edges {
			for _, leafWork := range []int64{0, 7, 1000} {
				name := fmt.Sprintf("(%d, %d, %d, 5)", iters, chunks, leafWork)
				check("IterativeFor"+name, IterativeFor(iters, chunks, leafWork, 5), refIterativeFor(iters, chunks, leafWork, 5))
				check("ShrinkingFor"+name, ShrinkingFor(iters, chunks, leafWork, 5), refShrinkingFor(iters, chunks, leafWork, 5))
			}
		}
	}
	// A balanced tree has branch^depth leaves: depth 33 is only reachable
	// as a chain (branch 1).
	for _, dc := range []struct{ depth, branch int }{
		{0, 1}, {0, 2}, {1, 1}, {1, 2}, {1, 33}, {2, 1}, {2, 2}, {2, 33}, {33, 1}, {5, 3},
	} {
		for _, merge := range []int64{0, 9} { // merge 0 drops the fork's second stage
			name := fmt.Sprintf("DivideAndConquer(%d, %d, 11, 3, %d)", dc.depth, dc.branch, merge)
			check(name, DivideAndConquer(dc.depth, dc.branch, 11, 3, merge), refDivideAndConquer(dc.depth, dc.branch, 11, 3, merge))
		}
	}
}

// TestSlabNeighboursUnreachable does the append the capacity check
// guards against and looks at the neighbour.
func TestSlabNeighboursUnreachable(t *testing.T) {
	root := IterativeFor(2, 3, 10, 1)
	first, second := root.Stages[0].Children[0], root.Stages[0].Children[1]
	first.Stages = append(first.Stages, Stage{Work: 99})
	if len(second.Stages) != 1 || second.Stages[0].Work != 10 {
		t.Fatalf("appending a stage to one leaf rewrote the next: %+v", second.Stages)
	}
	kids := root.Stages[0].Children
	extra := Leaf(1)
	_ = append(kids, extra)
	if root.Stages[1].Children[0] == extra {
		t.Fatal("appending a child to one stage overwrote the next stage's first child")
	}
	if err := Validate(&Graph{Root: root}); err != nil {
		t.Fatal(err)
	}
}

// TestBuilderClamps: a chunk or branch count below 1 counts as 1 instead
// of dividing by zero (Imbalanced) or panicking in make (a negative
// branch).
func TestBuilderClamps(t *testing.T) {
	for _, n := range []int{0, -1, -33} {
		if d := sameLayout(Imbalanced(1000, 0.5, n), Imbalanced(1000, 0.5, 1), "root"); d != "" {
			t.Errorf("Imbalanced(chunks %d) vs chunks 1: %s", n, d)
		}
		if d := sameLayout(DivideAndConquer(3, n, 11, 3, 9), DivideAndConquer(3, 1, 11, 3, 9), "root"); d != "" {
			t.Errorf("DivideAndConquer(branch %d) vs branch 1: %s", n, d)
		}
	}
	m := Analyze(&Graph{Root: Imbalanced(1000, 0.5, 0)})
	if m.Work != 1000 || m.Span != 500 || m.Nodes != 4 {
		t.Fatalf("Imbalanced(1000, 0.5, 0): %+v, want the serial half beside one 500µs chunk", m)
	}
}
