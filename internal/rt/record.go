package rt

import (
	"time"

	"dws/internal/task"
)

// RecordGraph executes root sequentially on the calling goroutine while
// recording its fork-join structure and measuring each serial section,
// producing a task.Graph the simulator (internal/sim) can run — a bridge
// from real code to simulated workloads.
//
// Every task becomes a Node; the wall time between its spawn/sync points
// becomes the stage works (child execution time is excluded from the
// parent's clock, so works are per-task serial sections). Because the
// recording run is sequential, measured durations are warm-cache,
// uncontended — exactly the simulator's definition of ideal work.
func RecordGraph(name string, memIntensity float64, root Task) *task.Graph {
	n := recordNode(root)
	return &task.Graph{Name: name, Root: n, MemIntensity: memIntensity}
}

// recCtx captures one task's structure during a recording run.
type recCtx struct {
	node    *task.Node
	stage   task.Stage
	started time.Time     // start of the current serial section
	childNS time.Duration // child time to subtract from the section
}

func recordNode(fn Runner) *task.Node {
	rc := &recCtx{node: &task.Node{}, started: time.Now()}
	ctx := &Ctx{rec: rc}
	fn.Run(ctx)
	ctx.Sync() // implicit final sync, mirroring live execution
	// Close the final serial section as a trailing stage.
	rc.closeStage()
	return rc.node
}

// elapsedUS returns the serial µs of the current section so far.
func (rc *recCtx) elapsedUS() int64 {
	us := (time.Since(rc.started) - rc.childNS).Microseconds()
	if us < 0 {
		us = 0
	}
	return us
}

// closeStage finalises the running stage and appends it to the node.
func (rc *recCtx) closeStage() {
	rc.stage.Work = rc.elapsedUS()
	rc.node.Stages = append(rc.node.Stages, rc.stage)
	rc.stage = task.Stage{}
	rc.started = time.Now()
	rc.childNS = 0
}

// recSpawn records (and immediately executes) a child task.
func (rc *recCtx) recSpawn(fn Runner) {
	childStart := time.Now()
	rc.stage.Children = append(rc.stage.Children, recordNode(fn))
	rc.childNS += time.Since(childStart)
}

// recSync closes the current stage: in the recorded graph, everything
// spawned so far joins here and the next serial section begins.
func (rc *recCtx) recSync() {
	// Only close if the stage has content; repeated Syncs are no-ops.
	if len(rc.stage.Children) > 0 || len(rc.node.Stages) == 0 {
		if len(rc.stage.Children) == 0 {
			// A bare Sync with nothing spawned: keep accumulating.
			return
		}
		rc.closeStage()
	}
}
