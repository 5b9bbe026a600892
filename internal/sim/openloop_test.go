package sim

import (
	"errors"
	"reflect"
	"testing"

	"dws/internal/task"
)

// mkJobs builds a uniform stream: n jobs every gapUS µs starting at
// startUS, each a fresh copy of the given root shape.
func mkJobs(n int, startUS, gapUS, deadlineUS int64, root func() *task.Node) []Job {
	js := make([]Job, n)
	for i := range js {
		js[i] = Job{
			AtUS:       startUS + int64(i)*gapUS,
			Graph:      &task.Graph{Name: "job", Root: root()},
			DeadlineUS: deadlineUS,
		}
	}
	return js
}

func smallRoot() *task.Node { return task.DivideAndConquer(4, 2, 400, 5, 10) }

// TestOpenLoopAllPolicies replays two tenants' job streams under every
// policy with the invariant checker on; every job must reach a terminal
// outcome and most must succeed (the streams are far from saturating).
func TestOpenLoopAllPolicies(t *testing.T) {
	for _, pol := range []Policy{ABP, EP, DWS, DWSNC, GO} {
		a := &task.Graph{Name: "ta", Root: task.Leaf(1), MemIntensity: 0.4}
		b := &task.Graph{Name: "tb", Root: task.Leaf(1), MemIntensity: 0.7}
		m := mustMachine(t, debugConfig(pol), []*task.Graph{a, b})
		res, err := m.RunOpen(OpenOpts{
			Jobs: [][]Job{
				mkJobs(20, 0, 20_000, 0, smallRoot),
				mkJobs(20, 5_000, 20_000, 0, smallRoot),
			},
			HorizonUS: 60_000_000_000,
		})
		if err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		if len(res.Jobs) != 40 {
			t.Fatalf("%v: %d outcomes for 40 jobs", pol, len(res.Jobs))
		}
		ok := 0
		for _, j := range res.Jobs {
			if j.Status == JobOK {
				ok++
				if j.StartUS < j.AtUS || j.DoneUS < j.StartUS {
					t.Fatalf("%v: job %+v has impossible times", pol, j)
				}
			}
		}
		if ok < 36 {
			t.Fatalf("%v: only %d/40 jobs ok under a light load", pol, ok)
		}
		if res.Programs[0].Name != "ta" || res.Programs[1].Name != "tb" {
			t.Fatalf("%v: program names %q/%q, want construction names",
				pol, res.Programs[0].Name, res.Programs[1].Name)
		}
	}
}

// TestOpenLoopDeterminism: identical config, streams, and seed give a
// bit-identical outcome log on the virtual clock.
func TestOpenLoopDeterminism(t *testing.T) {
	for _, pol := range []Policy{DWS, GO} {
		run := func() *Results {
			a := &task.Graph{Name: "ta", Root: task.Leaf(1), MemIntensity: 0.5}
			b := &task.Graph{Name: "tb", Root: task.Leaf(1), MemIntensity: 0.2}
			cfg := DefaultConfig()
			cfg.Policy = pol
			cfg.Seed = 7
			m := mustMachine(t, cfg, []*task.Graph{a, b})
			res, err := m.RunOpen(OpenOpts{
				Jobs: [][]Job{
					mkJobs(30, 0, 3_000, 40_000, smallRoot),
					mkJobs(30, 1_000, 3_000, 40_000, smallRoot),
				},
				HorizonUS: 60_000_000_000,
			})
			if err != nil {
				t.Fatalf("%v: %v", pol, err)
			}
			return res
		}
		r1, r2 := run(), run()
		if r1.EndTimeUS != r2.EndTimeUS || r1.Events != r2.Events {
			t.Fatalf("%v: nondeterministic end %d/%d events %d/%d",
				pol, r1.EndTimeUS, r2.EndTimeUS, r1.Events, r2.Events)
		}
		if !reflect.DeepEqual(r1.Jobs, r2.Jobs) {
			t.Fatalf("%v: nondeterministic job log", pol)
		}
	}
}

// TestOpenLoopRejectAndExpire: a saturating stream against a tiny queue
// must reject at admission and expire queued jobs past their deadline, and
// those jobs must never report a start or completion time.
func TestOpenLoopRejectAndExpire(t *testing.T) {
	g := &task.Graph{Name: "t", Root: task.Leaf(1)}
	m := mustMachine(t, debugConfig(DWS), []*task.Graph{g})
	// Each job is ~50ms of work on 16 cores at best; arrivals every 1ms
	// with a 30ms deadline guarantee a deep backlog.
	big := func() *task.Node { return task.ParallelFor(64, 12_000) }
	res, err := m.RunOpen(OpenOpts{
		Jobs:      [][]Job{mkJobs(40, 0, 1_000, 30_000, big)},
		QueueCap:  2,
		HorizonUS: 600_000_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	var nOK, nLate, nExp, nRej int
	for _, j := range res.Jobs {
		switch j.Status {
		case JobOK:
			nOK++
		case JobLate:
			nLate++
		case JobExpired:
			nExp++
		case JobRejected:
			nRej++
		}
		if j.Status == JobExpired || j.Status == JobRejected {
			if j.StartUS != -1 || j.DoneUS != -1 {
				t.Fatalf("unstarted job has times: %+v", j)
			}
		}
	}
	if nRej == 0 {
		t.Fatalf("no rejections under a saturating stream (ok=%d late=%d exp=%d rej=%d)",
			nOK, nLate, nExp, nRej)
	}
	if nExp == 0 && nLate == 0 {
		t.Fatalf("no deadline casualties under a saturating stream (ok=%d late=%d exp=%d rej=%d)",
			nOK, nLate, nExp, nRej)
	}
	if nOK+nLate+nExp+nRej != 40 {
		t.Fatalf("outcomes don't cover the stream: ok=%d late=%d exp=%d rej=%d", nOK, nLate, nExp, nRej)
	}
}

// TestOpenLoopChurn: a tenant that joins late still completes its jobs,
// and a DWS machine stays consistent across the join.
func TestOpenLoopChurn(t *testing.T) {
	for _, pol := range []Policy{DWS, GO} {
		a := &task.Graph{Name: "ta", Root: task.Leaf(1)}
		b := &task.Graph{Name: "tb", Root: task.Leaf(1)}
		m := mustMachine(t, debugConfig(pol), []*task.Graph{a, b})
		res, err := m.RunOpen(OpenOpts{
			Jobs: [][]Job{
				mkJobs(10, 0, 10_000, 0, smallRoot),
				mkJobs(5, 50_000, 10_000, 0, smallRoot),
			},
			JoinsUS:   []int64{0, 50_000},
			HorizonUS: 60_000_000_000,
		})
		if err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		for _, j := range res.Jobs {
			if j.Status != JobOK {
				t.Fatalf("%v: job %+v not ok under light load", pol, j)
			}
			if j.Prog == 1 && j.StartUS < 50_000 {
				t.Fatalf("%v: tenant started before its join: %+v", pol, j)
			}
		}
	}
}

// TestOpenLoopValidation covers RunOpen's error paths.
func TestOpenLoopValidation(t *testing.T) {
	g := &task.Graph{Name: "t", Root: task.Leaf(1)}
	fresh := func() *Machine { return mustMachine(t, DefaultConfig(), []*task.Graph{g}) }

	if _, err := fresh().RunOpen(OpenOpts{}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("stream-count mismatch: %v", err)
	}
	if _, err := fresh().RunOpen(OpenOpts{Jobs: [][]Job{nil}}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("no jobs: %v", err)
	}
	if _, err := fresh().RunOpen(OpenOpts{
		Jobs: [][]Job{mkJobs(2, 0, 1000, 0, smallRoot)}, JoinsUS: []int64{0, 0},
	}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("join-count mismatch: %v", err)
	}
	ooo := mkJobs(2, 10_000, 1000, 0, smallRoot)
	ooo[1].AtUS = 0
	if _, err := fresh().RunOpen(OpenOpts{Jobs: [][]Job{ooo}}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("out-of-order arrivals: %v", err)
	}
	neg := mkJobs(1, 0, 0, 0, smallRoot)
	neg[0].DeadlineUS = -1
	if _, err := fresh().RunOpen(OpenOpts{Jobs: [][]Job{neg}}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("negative deadline: %v", err)
	}
	bad := mkJobs(1, 0, 0, 0, smallRoot)
	bad[0].Graph = &task.Graph{Name: "bad"}
	if _, err := fresh().RunOpen(OpenOpts{Jobs: [][]Job{bad}}); err == nil {
		t.Fatal("nil-root job graph accepted")
	}
	m := fresh()
	if _, err := m.RunOpen(OpenOpts{Jobs: [][]Job{mkJobs(1, 0, 0, 0, smallRoot)}}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.RunOpen(OpenOpts{Jobs: [][]Job{mkJobs(1, 0, 0, 0, smallRoot)}}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("machine reuse: %v", err)
	}
}

// TestGOPolicyClosedLoop: the GO baseline also works in the paper's
// closed-loop mode and conserves work, with invariants checked.
func TestGOPolicyClosedLoop(t *testing.T) {
	a := &task.Graph{Name: "a", Root: task.DivideAndConquer(6, 2, 1500, 10, 20), MemIntensity: 0.4}
	b := &task.Graph{Name: "b", Root: task.IterativeFor(30, 20, 900, 5), MemIntensity: 0.7}
	m := mustMachine(t, debugConfig(GO), []*task.Graph{a, b})
	res, err := m.Run(RunOpts{TargetRuns: 2, HorizonUS: 60_000_000_000})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Programs {
		if p.Runs() < 2 {
			t.Fatalf("%s finished %d runs", p.Name, p.Runs())
		}
	}
	if res.Jobs != nil {
		t.Fatal("closed-loop run populated Jobs")
	}
	if GO.String() != "GO" {
		t.Fatal("GO.String()")
	}
}

// TestJobStatusStrings pins the status names the scenario reports use.
func TestJobStatusStrings(t *testing.T) {
	want := map[JobStatus]string{
		JobOK: "ok", JobLate: "late", JobExpired: "expired",
		JobRejected: "rejected", JobShed: "shed",
		JobEarlyReject: "early_reject", JobStatus(9): "JobStatus(9)",
	}
	for s, w := range want {
		if got := s.String(); got != w {
			t.Errorf("%d.String() = %q, want %q", int(s), got, w)
		}
	}
}
