package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dws/internal/arbiter"
	"dws/internal/coretable"
	"dws/internal/deque"
	"dws/internal/kernels"
	"dws/internal/metrics"
	"dws/internal/router"
	"dws/internal/rt"
	"dws/internal/scenario"
	"dws/internal/server"
	"dws/internal/sim"
	"dws/internal/task"
	"dws/internal/wfq"
	"dws/internal/workload"
)

// The ladder: fixed-count timings of public functions, one rung per layer
// cost the live workloads cannot isolate from outside. Every rung reports
// the median of a few repetitions, a few seconds in all.

// perOp runs fn(rep) — which does n operations — reps times and returns
// the median ns per operation.
func perOp(reps, n int, fn func(rep int)) float64 {
	ns := make([]float64, reps)
	for i := range ns {
		t := time.Now()
		fn(i)
		ns[i] = float64(time.Since(t)) / float64(n)
	}
	return median(ns)
}

func mallocs() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Mallocs)
}

// sink keeps the one pure, inlinable result the compiler could otherwise
// drop. (An `any` sink would box, and the allocation would be timed.)
var sink float64

func runLadder(res *result) error {
	for _, rung := range []func(*result) error{
		ladderRouter, ladderServer, ladderWFQ, ladderMetrics, ladderRT,
		ladderDeque, ladderTable, ladderKernels, ladderSim, ladderScenario,
	} {
		if err := rung(res); err != nil {
			return fmt.Errorf("ladder: %w", err)
		}
	}
	return nil
}

func ladderRouter(res *result) error {
	const reps, keys = 5, 1000
	names := make([]string, keys)
	for i := range names {
		names[i] = fmt.Sprintf("tenant-%d", i)
	}
	rings := make([]*router.Ring, reps)
	for i := range rings {
		rings[i] = router.NewRing(0, 0)
		for _, s := range []string{"s0", "s1", "s2"} {
			rings[i].Add(s)
		}
	}
	res.set("router.ring_assign_ns", perOp(reps, keys, func(rep int) {
		for _, k := range names {
			rings[rep].Assign(k)
		}
	}), "first placement of 1 000 keys on 3 shards")
	res.set("router.ring_preference_ns", perOp(reps, keys, func(rep int) {
		for _, k := range names {
			rings[rep].Preference(k)
		}
	}), "")
	return nil
}

// nullBody is a null job as the live clients send it.
var nullBody = []byte(`{"tenant":"ladder","kernel":"Cholesky","size":0.001}`)

func ladderServer(res *result) error {
	srv, err := server.New(server.Config{Cores: 2, Policy: rt.DWS, MaxTenants: 2})
	if err != nil {
		return err
	}
	defer func() { _ = srv.Shutdown(context.Background()) }() // idle: nothing to drain
	h := srv.Handler()
	bad := 0
	serve := func(n int) {
		for i := 0; i < n; i++ {
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(nullBody)))
			if w.Code != http.StatusOK {
				bad++
			}
		}
	}
	const reps, jobs = 4, 5000
	serve(1000)
	m0 := mallocs()
	ns := perOp(reps, jobs, func(int) { serve(jobs) })
	allocs := (mallocs() - m0) / (reps * jobs)
	if bad > 0 {
		return fmt.Errorf("server handler answered %d null jobs with a non-200", bad)
	}
	res.set("server.handler_us_per_job", ns/1e3, "Handler().ServeHTTP with an in-memory recorder, 20 000 sequential null jobs")
	res.set("server.handler_allocs_per_job", allocs, "request and recorder included")
	return nil
}

func ladderWFQ(res *result) error {
	const reps, n = 5, 200_000
	q := wfq.New[int]()
	q.AddFlow(0, 1)
	q.AddFlow(1, 1)
	res.set("wfq.enqueue_pop_ns", perOp(reps, n, func(int) {
		for i := 0; i < n; i++ {
			q.Enqueue(i&1, i, 1)
			q.Pop(i & 1)
		}
	}), "2 flows")

	// The shed path no live workload reaches (two connections cannot fill
	// the global cap): 8 flows × 16 backlog, every arrival displaces the
	// worst tail.
	const flows, backlog = 8, 16
	sq := wfq.New[int]()
	for f := 0; f < flows; f++ {
		sq.AddFlow(f, float64(f+1))
		for i := 0; i < backlog; i++ {
			sq.Enqueue(f, i, 1)
		}
	}
	res.set("wfq.shed_cycle_ns", perOp(reps, n, func(int) {
		for i := 0; i < n; i++ {
			f := i % flows
			sink += sq.TagPreview(f, 1)
			sq.PeekMaxTail()
			sq.ShedMaxTail()
			sq.Enqueue(f, i, 1)
		}
	}), "8 flows × 16 backlog: TagPreview + PeekMaxTail + ShedMaxTail + Enqueue; ladder only")
	return nil
}

func ladderMetrics(res *result) error {
	const reps, n = 5, 200_000
	reg := metrics.NewRegistry()
	c := reg.NewCounter("ladder_jobs_total", "", "tenant", "kernel", "status")
	h := reg.NewHistogram("ladder_latency_seconds", "", nil, "tenant", "kernel", "status")
	res.set("metrics.counter_with_inc_ns", perOp(reps, n, func(int) {
		for i := 0; i < n; i++ {
			c.With("ladder", "Cholesky", "ok").Inc()
		}
	}), "With(3 labels) + Inc")
	res.set("metrics.hist_with_observe_ns", perOp(reps, n, func(int) {
		for i := 0; i < n; i++ {
			h.With("ladder", "Cholesky", "ok").Observe(0.0001)
		}
	}), "With(3 labels) + Observe")
	res.set("metrics.counter_with_inc_par_ns", perOp(reps, n, func(int) {
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < n/2; i++ {
					c.With("ladder", "Cholesky", "ok").Inc()
				}
			}()
		}
		wg.Wait()
	}), "2 goroutines on one series, wall ns per Inc")
	return nil
}

// treeTask is a balanced binary spawn tree of the given depth with empty
// leaves, built once so a run allocates nothing outside the runtime.
func treeTask(depth int) rt.Task {
	if depth == 0 {
		return func(*rt.Ctx) {}
	}
	child := treeTask(depth - 1)
	return func(c *rt.Ctx) {
		c.Spawn(child)
		c.Spawn(child)
		c.Sync()
	}
}

func ladderRT(res *result) error {
	// The system a null-direct shard hosts: 2 cores, 2 program slots, DWS,
	// one program on it and the other slot idle.
	sys, err := rt.NewSystem(rt.Config{Cores: 2, Programs: 2, Policy: rt.DWS})
	if err != nil {
		return err
	}
	defer sys.Close()
	prog, err := sys.NewProgram("ladder")
	if err != nil {
		return err
	}
	defer prog.Close()
	null, _ := kernels.ByName("Cholesky")
	fft, _ := kernels.ByName("FFT")

	const reps, jobs = 4, 5000
	tasks := make([][]rt.Task, reps)
	newTaskNS := perOp(reps, jobs, func(rep int) {
		tasks[rep] = make([]rt.Task, jobs)
		for i := range tasks[rep] {
			tasks[rep][i] = null.NewTask(0.001)
		}
	})
	res.set("rt.newtask_null_us", newTaskNS/1e3, "Spec.NewTask of the null kernel")
	for _, t := range tasks[0][:1000] {
		if err := prog.Run(t); err != nil {
			return err
		}
	}
	m0 := mallocs()
	runNS := perOp(reps, jobs, func(rep int) {
		for _, t := range tasks[rep] {
			if err := prog.Run(t); err != nil {
				panic(err) // the program is open for the whole rung
			}
		}
	})
	res.set("rt.run_null_allocs", (mallocs()-m0)/(reps*jobs), "")
	res.set("rt.run_null_us", runNS/1e3, "Program.Run of a prebuilt null task, 20 000 ×")

	const depth = 15
	tree := treeTask(depth)
	res.set("rt.spawn_sync_ns_per_task", perOp(5, 1<<(depth+1)-1, func(int) {
		if err := prog.Run(tree); err != nil {
			panic(err)
		}
	}), "balanced spawn tree, 2^15 empty leaves")

	ms := make([]float64, 30)
	for i := range ms {
		t := time.Now()
		if err := prog.Run(fft.NewTask(0.05)); err != nil {
			return err
		}
		ms[i] = float64(time.Since(t)) / 1e6
	}
	seq := calibrate()
	res.set("rt.overhead_ratio.fft", ratio(median(ms), seq),
		fmt.Sprintf("FFT 0.05 alone on 2 cores: NewTask + Run %.3f ms ÷ sequential FFT %.3f ms", median(ms), seq))
	return nil
}

func ladderDeque(res *result) error {
	const reps, n = 5, 500_000
	v := 1
	d := deque.NewEngine[int](deque.KindChaseLev, 8)
	res.set("deque.push_pop_ns", perOp(reps, n, func(int) {
		for i := 0; i < n; i++ {
			d.Push(&v)
			d.Pop()
		}
	}), "")
	res.set("deque.push_steal_ns", perOp(reps, n, func(int) {
		for i := 0; i < n; i++ {
			d.Push(&v)
			d.Steal()
		}
	}), "single-threaded")

	// One owner cycling batches through Push/Pop against one live thief.
	const batch, batches = 256, 400
	cd := deque.NewEngine[int](deque.KindChaseLev, batch)
	var taken atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			if cd.Steal() != nil {
				taken.Add(1)
			} else {
				runtime.Gosched()
			}
		}
	}()
	var goal int64
	ns := perOp(reps, batch*batches, func(int) {
		for b := 0; b < batches; b++ {
			goal += batch
			for i := 0; i < batch; i++ {
				cd.Push(&v)
			}
			for taken.Load() < goal {
				if cd.Pop() != nil {
					taken.Add(1)
				} else {
					runtime.Gosched()
				}
			}
		}
	})
	stop.Store(true)
	wg.Wait()
	res.set("deque.contended_steal_ns", ns, "1 owner + 1 thief, ns per element handed out")
	return nil
}

func ladderTable(res *result) error {
	const reps, n = 5, 500_000
	tab := coretable.NewMem(2)
	res.set("coretable.claim_release_ns", perOp(reps, n, func(int) {
		for i := 0; i < n; i++ {
			tab.ClaimFree(0, 1)
			tab.Release(0, 1)
		}
	}), "ClaimFree + Release")

	arb := arbiter.New(arbiter.Config{Cores: 2}, coretable.NewMem(2))
	inputs := []arbiter.Input{{PID: 1, NB: 4, NA: 1}, {PID: 2, NB: 0, NA: 1}}
	const ticks = 20_000
	res.set("arbiter.tick_us", perOp(reps, ticks, func(int) {
		for i := 0; i < ticks; i++ {
			inputs[0].NB, inputs[1].NB = i&7, (i>>3)&7
			arb.Tick(inputs)
		}
	})/1e3, "Tick with 2 inputs")
	return nil
}

func ladderKernels(res *result) error {
	res.set("kernels.fft_seq_ms", calibrate(), "n = 16 384; the host-speed witness")

	src := kernels.RandSlice(200_000, 11)
	buf := make([]int32, len(src))
	res.set("kernels.mergesort_seq_ms", perOp(7, 1, func(int) {
		copy(buf, src)
		kernels.MergesortSeq(buf)
	})/1e6, "n = 200 000")

	const n = 8
	spd := kernels.SPDMatrix(n, 12)
	a := make([]float64, len(spd))
	const reps, runs = 5, 50_000
	res.set("kernels.null_seq_us", perOp(reps, runs, func(int) {
		for i := 0; i < runs; i++ {
			copy(a, spd)
			kernels.CholeskySeq(a, n)
		}
	})/1e3, "Cholesky n = 8")
	return nil
}

// stormJobs turns the overload-storm trace into RunOpen's input, the way
// scenario.RunSim does (which does not return the event count).
func stormJobs(tr *scenario.Trace) ([][]sim.Job, []*task.Graph, error) {
	tenants := tr.Tenants()
	idx := map[string]int{}
	anchors := make([]*task.Graph, len(tenants))
	for i, name := range tenants {
		idx[name] = i
		anchors[i] = &task.Graph{Name: name, Root: task.Leaf(1)}
	}
	jobs := make([][]sim.Job, len(tenants))
	for _, e := range tr.Events {
		if e.Op != scenario.OpJob {
			continue
		}
		b, err := workload.ByID(e.Kernel)
		if err != nil {
			return nil, nil, err
		}
		jobs[idx[e.Tenant]] = append(jobs[idx[e.Tenant]],
			sim.Job{AtUS: e.AtUS, Graph: b.Make(e.Scale), DeadlineUS: e.DeadlineUS})
	}
	return jobs, anchors, nil
}

func ladderSim(res *result) error {
	tr, err := scenario.CompileByName("overload-storm")
	if err != nil {
		return err
	}
	jobs, anchors, err := stormJobs(tr)
	if err != nil {
		return err
	}
	adm := &sim.AdmissionOpts{GlobalCap: len(anchors) * 8, EarlyReject: true}
	const reps = 3
	var eps, allocsPerEvent []float64
	for i := 0; i < reps; i++ {
		cfg := sim.DefaultConfig()
		cfg.Policy = sim.DWS
		m, err := sim.NewMachine(cfg, anchors)
		if err != nil {
			return err
		}
		m0 := mallocs()
		t := time.Now()
		r, err := m.RunOpen(sim.OpenOpts{Jobs: jobs, Admission: adm})
		if err != nil {
			return err
		}
		wall := time.Since(t).Seconds()
		eps = append(eps, float64(r.Events)/wall)
		allocsPerEvent = append(allocsPerEvent, (mallocs()-m0)/float64(r.Events))
	}
	res.set("sim.runopen_events_per_s", median(eps), "Machine.RunOpen, overload-storm, DWS")
	res.set("sim.ns_per_event", 1e9/median(eps), "")
	res.set("sim.allocs_per_event", median(allocsPerEvent), "")

	eps = eps[:0]
	for i := 0; i < reps; i++ {
		cfg := sim.DefaultConfig()
		cfg.Policy = sim.DWS
		cfg.Cores, cfg.SocketSize = 4, 4
		t := time.Now()
		fr, err := scenario.RunFedSim(tr, scenario.FedSimOptions{
			Config: cfg, Shards: 3, Spill: sim.SpillNext, QueueCap: 2,
			Admission: &sim.AdmissionOpts{GlobalCap: len(anchors) * 4, EarlyReject: true},
		})
		if err != nil {
			return err
		}
		wall := time.Since(t).Seconds()
		var events int64
		for _, sh := range fr.Fed.Shards {
			events += sh.Events
		}
		eps = append(eps, float64(events)/wall)
	}
	res.set("sim.federation_events_per_s", median(eps), "RunFedSim, 3 shards, spill next; graph building included")
	return nil
}

func ladderScenario(res *result) error {
	var traces []*scenario.Trace
	res.set("scenario.compile_ms", perOp(5, 1, func(int) {
		traces = traces[:0]
		for _, spec := range scenario.Catalog() {
			tr, err := spec.Compile()
			if err != nil {
				panic(err) // the committed catalog compiles
			}
			traces = append(traces, tr)
		}
	})/1e6, "the 7 catalog specs")

	storm := traces[len(traces)-1]
	var rtErr error
	res.set("scenario.jsonl_roundtrip_ms", perOp(5, 1, func(int) {
		var buf bytes.Buffer
		if err := scenario.WriteJSONL(&buf, storm); err != nil {
			rtErr = err
			return
		}
		_, rtErr = scenario.LoadJSONL(&buf)
	})/1e6, "WriteJSONL + LoadJSONL of "+storm.Name)
	if rtErr != nil {
		return rtErr
	}

	type graphKey struct {
		kernel string
		scale  float64
	}
	seen := map[graphKey]bool{}
	var keys []graphKey
	for _, tr := range traces {
		for _, e := range tr.Events {
			if k := (graphKey{e.Kernel, e.Scale}); e.Op == scenario.OpJob && !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
	}
	var makeErr error
	res.set("workload.make_ms", perOp(3, 1, func(int) {
		for _, k := range keys {
			b, err := workload.ByID(k.kernel)
			if err != nil {
				makeErr = err
				return
			}
			b.Make(k.scale)
		}
	})/1e6, fmt.Sprintf("the catalog's %d distinct kernel × scale graphs", len(keys)))
	return makeErr
}
