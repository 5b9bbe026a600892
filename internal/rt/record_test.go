package rt

import (
	"testing"
	"time"

	"dws/internal/task"
)

func spin(d time.Duration) {
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
	}
}

// TestRecordStructure: a fork-join body records the expected tree shape.
func TestRecordStructure(t *testing.T) {
	g := RecordGraph("toy", 0.3, func(c *Ctx) {
		spin(2 * time.Millisecond) // pre work
		c.Spawn(func(*Ctx) { spin(20 * time.Millisecond) })
		c.Spawn(func(*Ctx) { spin(20 * time.Millisecond) })
		c.Sync()
		spin(2 * time.Millisecond) // post work
	})
	if err := task.Validate(g); err != nil {
		t.Fatal(err)
	}
	if g.MemIntensity != 0.3 || g.Name != "toy" {
		t.Fatalf("metadata %q/%v", g.Name, g.MemIntensity)
	}
	m := task.Analyze(g)
	if m.Nodes != 3 {
		t.Fatalf("nodes = %d, want 3", m.Nodes)
	}
	// The root's first stage spawns the two children.
	root := g.Root
	if len(root.Stages) < 2 {
		t.Fatalf("root has %d stages, want >= 2", len(root.Stages))
	}
	if len(root.Stages[0].Children) != 2 {
		t.Fatalf("stage 0 spawns %d children, want 2", len(root.Stages[0].Children))
	}
	// Measured works are in the right ballpark (spin loops are coarse).
	if root.Stages[0].Work < 1_000 || root.Stages[0].Work > 20_000 {
		t.Errorf("pre work = %dµs, want ≈2000", root.Stages[0].Work)
	}
	last := root.Stages[len(root.Stages)-1]
	if last.Work < 1_000 || last.Work > 20_000 {
		t.Errorf("post work = %dµs, want ≈2000", last.Work)
	}
	// Child serial time (40 ms) must not leak into the parent's stages
	// (4 ms; the children are long so that a loaded host stretching the
	// root's own spins severalfold still reads far below a leak).
	var rootWork int64
	for _, st := range root.Stages {
		rootWork += st.Work
	}
	if rootWork > 30_000 {
		t.Errorf("root serial work %dµs includes child time", rootWork)
	}
}

// TestRecordBarriers: repeated spawn/sync rounds become stages.
func TestRecordBarriers(t *testing.T) {
	g := RecordGraph("phases", 0, func(c *Ctx) {
		for round := 0; round < 3; round++ {
			for i := 0; i < 4; i++ {
				c.Spawn(func(*Ctx) { spin(200 * time.Microsecond) })
			}
			c.Sync()
		}
	})
	if err := task.Validate(g); err != nil {
		t.Fatal(err)
	}
	spawning := 0
	for _, st := range g.Root.Stages {
		if len(st.Children) > 0 {
			spawning++
			if len(st.Children) != 4 {
				t.Fatalf("stage spawns %d children, want 4", len(st.Children))
			}
		}
	}
	if spawning != 3 {
		t.Fatalf("%d spawning stages, want 3", spawning)
	}
}

// TestRecordCtxAccessors: recording contexts report sentinel identities.
func TestRecordCtxAccessors(t *testing.T) {
	RecordGraph("ids", 0, func(c *Ctx) {
		if c.Worker() != -1 {
			t.Errorf("Worker() = %d during recording", c.Worker())
		}
		if c.Program() != nil {
			t.Error("Program() non-nil during recording")
		}
	})
}

// TestRecordParallelForWorks: the helper API records chunked spawns.
func TestRecordParallelForWorks(t *testing.T) {
	g := RecordGraph("pf", 0, func(c *Ctx) {
		ParallelFor(c, 64, 16, func(lo, hi int) { spin(100 * time.Microsecond) })
	})
	if err := task.Validate(g); err != nil {
		t.Fatal(err)
	}
	if len(g.Root.Stages[0].Children) != 4 {
		t.Fatalf("ParallelFor recorded %d chunks, want 4", len(g.Root.Stages[0].Children))
	}
}
