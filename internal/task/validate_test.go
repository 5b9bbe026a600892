package task

import (
	"errors"
	"strings"
	"testing"
)

// lastLeafParent walks the last child of the last spawning stage down to
// the node whose children are leaves, so a defect planted there is the
// very last thing a depth-first validation reaches.
func lastLeafParent(root *Node) *Node {
	n := root
	for {
		var st *Stage
		for i := len(n.Stages) - 1; i >= 0; i-- {
			if len(n.Stages[i].Children) > 0 {
				st = &n.Stages[i]
				break
			}
		}
		last := st.Children[len(st.Children)-1]
		spawns := false
		for _, s := range last.Stages {
			spawns = spawns || len(s.Children) > 0
		}
		if !spawns {
			return n
		}
		n = last
	}
}

// lastSpawn returns the children slice of n's last spawning stage.
func lastSpawn(n *Node) []*Node {
	for i := len(n.Stages) - 1; i >= 0; i-- {
		if len(n.Stages[i].Children) > 0 {
			return n.Stages[i].Children
		}
	}
	return nil
}

// TestValidateLargeGraphs runs every Validate check against graphs of at
// least 10 000 nodes, with each defect planted at the far end of the walk:
// the sizes the scenario replays validate per job, where a visited set that
// is reused or presized must still see every node.
func TestValidateLargeGraphs(t *testing.T) {
	dnc := func() *Graph { // 2^14 − 1 = 16 383 nodes
		return &Graph{Name: "dnc", Root: DivideAndConquer(13, 2, 100, 5, 10), MemIntensity: 0.5}
	}
	iter := func() *Graph { // 1 + 120 × 100 = 12 001 nodes
		return &Graph{Name: "iter", Root: IterativeFor(120, 100, 50, 5), MemIntensity: 1}
	}
	for _, mk := range []func() *Graph{dnc, iter} {
		if n := Analyze(mk()).Nodes; n < 10_000 {
			t.Fatalf("%s has %d nodes, want ≥ 10 000", mk().Name, n)
		}
	}

	cases := []struct {
		name  string
		graph func() *Graph
		want  error  // nil: valid
		label string // expected in the message, when the error names a node
	}{
		{"valid divide-and-conquer", dnc, nil, ""},
		{"valid iterative", iter, nil, ""},
		{"nil graph", func() *Graph { return nil }, ErrNilRoot, ""},
		{"nil root", func() *Graph { g := dnc(); g.Root = nil; return g }, ErrNilRoot, ""},
		{"intensity below 0", func() *Graph { g := dnc(); g.MemIntensity = -0.01; return g }, ErrIntensity, ""},
		{"intensity above 1", func() *Graph { g := iter(); g.MemIntensity = 1.01; return g }, ErrIntensity, ""},
		{"nil child, last leaf", func() *Graph {
			g := dnc()
			kids := lastSpawn(lastLeafParent(g.Root))
			kids[len(kids)-1] = nil
			return g
		}, ErrNilChild, ""},
		{"nil child, last iteration", func() *Graph {
			g := iter()
			kids := lastSpawn(g.Root)
			kids[len(kids)-1] = nil
			return g
		}, ErrNilChild, ""},
		{"shared leaf, first and last", func() *Graph {
			g := dnc()
			first := g.Root
			for len(lastSpawn(first)) > 0 {
				first = first.Stages[0].Children[0]
			}
			first.Label = "twice"
			kids := lastSpawn(lastLeafParent(g.Root))
			kids[len(kids)-1] = first
			return g
		}, ErrShared, `"twice"`},
		{"shared subtree", func() *Graph {
			g := dnc()
			top := g.Root.Stages[0].Children
			top[0].Label = "subtree"
			top[1] = top[0]
			return g
		}, ErrShared, `"subtree"`},
		{"shared across iterations", func() *Graph {
			g := iter()
			leaf := g.Root.Stages[0].Children[0]
			leaf.Label = "chunk"
			kids := lastSpawn(g.Root)
			kids[len(kids)-1] = leaf
			return g
		}, ErrShared, `"chunk"`},
		{"no stages, last leaf", func() *Graph {
			g := dnc()
			kids := lastSpawn(lastLeafParent(g.Root))
			kids[len(kids)-1] = &Node{Label: "empty"}
			return g
		}, ErrNoStages, `"empty"`},
		{"negative work, last leaf", func() *Graph {
			g := dnc()
			kids := lastSpawn(lastLeafParent(g.Root))
			leaf := kids[len(kids)-1]
			leaf.Label = "owes"
			leaf.Stages[0].Work = -7
			return g
		}, ErrNegativeWork, `-7 in "owes"`},
		{"negative merge work, root", func() *Graph {
			g := dnc()
			g.Root.Label = "root"
			g.Root.Stages[len(g.Root.Stages)-1].Work = -1
			return g
		}, ErrNegativeWork, `-1 in "root"`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := Validate(c.graph())
			if c.want == nil {
				if err != nil {
					t.Fatalf("valid graph rejected: %v", err)
				}
				return
			}
			if !errors.Is(err, c.want) {
				t.Fatalf("err = %v, want %v", err, c.want)
			}
			if !strings.Contains(err.Error(), c.label) {
				t.Fatalf("err = %q, want it to name %s", err, c.label)
			}
		})
	}
}

// TestValidatorAcceptsEachGraphOnce: a Validator walks a graph the first
// time it sees the pointer and never again, keeps rejecting a bad graph
// however often it is offered, and one graph's verdict does not leak into
// the next — a node may appear in two graphs, and a walk cut short by an
// error leaves nothing behind.
func TestValidatorAcceptsEachGraphOnce(t *testing.T) {
	var v Validator
	good := &Graph{Name: "good", Root: DivideAndConquer(13, 2, 100, 5, 10)}
	if err := v.Validate(good); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(10, func() {
		if err := v.Validate(good); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("re-validating an accepted graph allocates %.0f times, want 0 (it should not be walked)", allocs)
	}

	shared := Leaf(1)
	bad := &Graph{Name: "bad", Root: Fork(0, 0, DivideAndConquer(8, 2, 1, 1, 1), shared, shared)}
	for i := 0; i < 2; i++ {
		if err := v.Validate(bad); !errors.Is(err, ErrShared) {
			t.Fatalf("offer %d of the bad graph: err = %v, want ErrShared", i, err)
		}
	}

	// The bad walk stopped with good-looking nodes in the visited set, and
	// this graph reuses one of them: neither may count against it.
	reuse := &Graph{Name: "reuse", Root: Fork(0, 0, shared, bad.Root.Stages[0].Children[0])}
	if err := v.Validate(reuse); err != nil {
		t.Fatalf("a node already seen in another graph was held against this one: %v", err)
	}
}
