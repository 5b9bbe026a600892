package sim

import (
	"runtime"
	"testing"

	"dws/internal/task"
)

// TestRunOpenSteadyStateAllocs is the simulator twin of the live
// runtime's TestSpawnExecuteSteadyStateZeroAlloc: the event loop must not
// allocate per event. Two replays of the same four-tenant stream, one
// eight times longer than the other, differ only in how many jobs (and so
// events) they process; the extra allocations divided by the extra events
// is the marginal cost of one event. Every job carries its own graph, as
// in the benchmark's RunOpen rung, so per-graph validation is inside the
// measurement; what remains per job (its record, its arrival event, its
// log entry) is spread over the hundreds of events a job takes.
func TestRunOpenSteadyStateAllocs(t *testing.T) {
	measure := func(jobsPerTenant int) (allocs, events float64) {
		const tenants = 4
		anchors := make([]*task.Graph, tenants)
		jobs := make([][]Job, tenants)
		for i := range anchors {
			anchors[i] = &task.Graph{Name: "t", Root: task.Leaf(1), MemIntensity: 0.5}
			jobs[i] = mkJobs(jobsPerTenant, int64(i)*700, 9_000, 40_000, func() *task.Node {
				return task.DivideAndConquer(7, 2, 300, 5, 10)
			})
		}
		cfg := DefaultConfig()
		cfg.Policy = DWS
		m := mustMachine(t, cfg, anchors)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := m.RunOpen(OpenOpts{
			Jobs:      jobs,
			Admission: &AdmissionOpts{GlobalCap: tenants * 8, EarlyReject: true},
		})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return float64(after.Mallocs - before.Mallocs), float64(res.Events)
	}

	aShort, eShort := measure(25)
	aLong, eLong := measure(200)
	marginal := (aLong - aShort) / (eLong - eShort)
	t.Logf("short: %.0f allocs / %.0f events; long: %.0f allocs / %.0f events; marginal %.3f allocs/event",
		aShort, eShort, aLong, eLong, marginal)
	if eLong < 4*eShort {
		t.Fatalf("long replay processed %.0f events against %.0f: not a longer trace", eLong, eShort)
	}
	if marginal > 0.25 {
		t.Errorf("marginal %.3f allocs per event, want ≤ 0.25: the event loop allocates per event", marginal)
	}
}

// TestTaskQueueOrderAndReuse: owners pop the newest task, thieves steal
// the oldest, and a queue that is pushed to and stolen from one task at a
// time — a job's root handed to a parked worker — keeps its backing array
// instead of walking off the end of it.
func TestTaskQueueOrderAndReuse(t *testing.T) {
	tasks := make([]*simTask, 6)
	for i := range tasks {
		tasks[i] = &simTask{stage: i}
	}
	var q taskQueue
	for _, tk := range tasks {
		q.push(tk)
	}
	for _, want := range []*simTask{tasks[0], tasks[1]} {
		if got := q.steal(); got != want {
			t.Fatalf("steal took task %d, want the oldest, %d", got.stage, want.stage)
		}
	}
	for _, want := range []*simTask{tasks[5], tasks[4], tasks[3], tasks[2]} {
		if q.len() == 0 {
			t.Fatal("queue empty with tasks outstanding")
		}
		if got := q.pop(); got != want {
			t.Fatalf("pop took task %d, want the newest, %d", got.stage, want.stage)
		}
	}
	if q.len() != 0 || q.pop() != nil || q.steal() != nil {
		t.Fatal("drained queue still yields tasks")
	}

	// Steady state, drained each time and never drained: no growth.
	q.push(tasks[0])
	q.push(tasks[1])
	for _, drain := range []bool{true, false} {
		if allocs := testing.AllocsPerRun(1000, func() {
			q.push(tasks[2])
			q.steal()
			if drain {
				q.steal()
				q.steal()
				q.push(tasks[0])
				q.push(tasks[1])
			}
		}); allocs != 0 {
			t.Errorf("push/steal cycle (drain=%v) allocates %.2f times per round, want 0", drain, allocs)
		}
	}
}
