package sim

import (
	"fmt"
	"hash/fnv"
	"testing"

	"dws/internal/task"
)

// bigRoot is ~50ms of work on the default 16 cores — enough to pin a
// program busy while arrivals pile into its backlog.
func bigRoot() *task.Node { return task.ParallelFor(64, 12_000) }

// TestOpenAdmissionDegeneracy pins "equal-weight WFQ with no global cap
// and no early rejection behaves as bounded per-program FIFOs" by numbers:
// the constants are what the per-program pending-FIFO path (deleted in
// PR 20) produced at its last commit for this stream, which exercises
// queueing, rejection, and deadline expiry. A nil Admission and the
// all-defaults AdmissionOpts must both reproduce them.
func TestOpenAdmissionDegeneracy(t *testing.T) {
	want := map[Policy]struct {
		endUS, events int64
		logHash       uint64
	}{
		DWS: {98454, 258, 0x1700239def7cac82},
		GO:  {517070, 354, 0xff129a0120896477},
	}
	for _, pol := range []Policy{DWS, GO} {
		for _, adm := range []*AdmissionOpts{
			nil,
			{}, // zero value: all defaults
		} {
			ga := &task.Graph{Name: "ta", Root: task.Leaf(1), MemIntensity: 0.4}
			gb := &task.Graph{Name: "tb", Root: task.Leaf(1), MemIntensity: 0.7}
			m := mustMachine(t, debugConfig(pol), []*task.Graph{ga, gb})
			res, err := m.RunOpen(OpenOpts{
				Jobs: [][]Job{
					mkJobs(25, 0, 2_000, 40_000, bigRoot),
					mkJobs(25, 1_000, 2_000, 40_000, bigRoot),
				},
				QueueCap:  3,
				HorizonUS: 600_000_000_000,
				Admission: adm,
			})
			if err != nil {
				t.Fatalf("%v: %v", pol, err)
			}
			h := fnv.New64a()
			rej := 0
			for _, j := range res.Jobs {
				fmt.Fprintf(h, "%d %d %d %d %d %d\n", j.Prog, j.Index, j.AtUS, j.Status, j.StartUS, j.DoneUS)
				if j.Status == JobRejected {
					rej++
				}
			}
			w := want[pol]
			if res.EndTimeUS != w.endUS || res.Events != w.events || h.Sum64() != w.logHash {
				t.Fatalf("%v %+v: end=%d events=%d log=%#x, want end=%d events=%d log=%#x — equal-weight WFQ diverged from bounded per-program FIFOs",
					pol, adm, res.EndTimeUS, res.Events, h.Sum64(), w.endUS, w.events, w.logHash)
			}
			if rej == 0 {
				t.Fatalf("%v: stream never hit the queue cap; degeneracy test exercises nothing", pol)
			}
		}
	}
}

// TestOpenAdmissionShedFavorsWeight: at the global cap a weight-2
// program's arrival displaces the weight-1 program's newest queued job
// (the worst-placed tail in virtual time), and the displaced job resolves
// JobShed without ever starting.
func TestOpenAdmissionShedFavorsWeight(t *testing.T) {
	gold := &task.Graph{Name: "gold", Root: task.Leaf(1)}
	bronze := &task.Graph{Name: "bronze", Root: task.Leaf(1)}
	cfg := debugConfig(DWS)
	cfg.Weights = []float64{2, 1}
	m := mustMachine(t, cfg, []*task.Graph{gold, bronze})

	// t=0: both programs start a long job (idle-start, no queueing).
	// t=1..3ms: bronze queues three more — backlog 3 = global cap.
	// t=5ms: gold's second arrival tags ahead of bronze's tail
	// (cost 1 / weight 2 = 0.5 < bronze's tail finish 3.0) and sheds it.
	res, err := m.RunOpen(OpenOpts{
		Jobs: [][]Job{
			{
				{AtUS: 0, Graph: &task.Graph{Name: "j", Root: bigRoot()}},
				{AtUS: 5_000, Graph: &task.Graph{Name: "j", Root: bigRoot()}},
			},
			mkJobs(4, 0, 1_000, 0, bigRoot),
		},
		QueueCap:  8,
		HorizonUS: 600_000_000_000,
		Admission: &AdmissionOpts{GlobalCap: 3},
	})
	if err != nil {
		t.Fatal(err)
	}

	var sheds []JobOutcome
	byProg := map[int]map[JobStatus]int{0: {}, 1: {}}
	for _, j := range res.Jobs {
		byProg[j.Prog][j.Status]++
		if j.Status == JobShed {
			sheds = append(sheds, j)
			if j.StartUS != -1 || j.DoneUS != -1 {
				t.Errorf("shed job has run times: %+v", j)
			}
		}
	}
	if len(sheds) != 1 {
		t.Fatalf("sheds = %d, want exactly 1 (one gold arrival at the cap): %+v", len(sheds), res.Jobs)
	}
	if sheds[0].Prog != 1 || sheds[0].Index != 3 {
		t.Errorf("shed landed on prog %d job %d, want bronze's newest (prog 1 job 3)",
			sheds[0].Prog, sheds[0].Index)
	}
	if byProg[0][JobOK] != 2 {
		t.Errorf("gold finished %d/2 jobs ok; the shed must have made room for its arrival", byProg[0][JobOK])
	}
	if byProg[1][JobOK] != 3 {
		t.Errorf("bronze finished %d jobs ok, want 3 (4 submitted, 1 shed)", byProg[1][JobOK])
	}
}

// TestOpenAdmissionEarlyReject: with a warm service EWMA, an arrival
// whose predicted wait exceeds its deadline resolves JobEarlyReject at
// arrival time; with early rejection off the same job is admitted and
// dies the old way — silently expired at dequeue.
func TestOpenAdmissionEarlyReject(t *testing.T) {
	run := func(earlyReject bool) *Results {
		g := &task.Graph{Name: "t", Root: task.Leaf(1)}
		m := mustMachine(t, debugConfig(DWS), []*task.Graph{g})
		res, err := m.RunOpen(OpenOpts{
			Jobs: [][]Job{{
				// Warms the EWMA (~tens of ms of service time).
				{AtUS: 0, Graph: &task.Graph{Name: "j", Root: bigRoot()}},
				// Idle start long after the first completes.
				{AtUS: 20_000_000, Graph: &task.Graph{Name: "j", Root: bigRoot()}},
				// Arrives 100µs in with a 1µs deadline: predicted wait
				// (EWMA × 1 job ahead) strictly exceeds it.
				{AtUS: 20_000_100, DeadlineUS: 1, Graph: &task.Graph{Name: "j", Root: bigRoot()}},
			}},
			QueueCap:  8,
			HorizonUS: 600_000_000_000,
			Admission: &AdmissionOpts{EarlyReject: earlyReject},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	on := run(true)
	doomed := on.Jobs[2]
	if doomed.Status != JobEarlyReject {
		t.Fatalf("doomed job status %v, want early_reject: %+v", doomed.Status, on.Jobs)
	}
	if doomed.StartUS != -1 || doomed.DoneUS != -1 {
		t.Errorf("early-rejected job has run times: %+v", doomed)
	}
	for _, j := range on.Jobs[:2] {
		if j.Status != JobOK {
			t.Errorf("healthy job %d status %v, want ok", j.Index, j.Status)
		}
	}

	off := run(false)
	if got := off.Jobs[2].Status; got != JobExpired {
		t.Fatalf("with early rejection off the doomed job should silently expire, got %v", got)
	}
}
