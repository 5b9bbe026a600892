// Tier-2 perf baseline: a gated generator that runs a fixed battery of
// kernel, runtime-overhead, per-job set-up and deque micro-benchmarks
// through testing.Benchmark and writes the results as the committed JSON
// baseline. It is a no-op test unless an output path is named:
//
//	BENCH_HOTPATH_OUT=BENCH_hotpath.json go test -run TestWriteHotpathBench .
//
// BENCH_hotpath.json holds the kernels sequentially and under the live
// runtime per policy, what one small job pays around its kernel, the
// simulator (one replay and the whole scenario suite), and the deque; it
// is the baseline the CI regression gate (cmd/benchgate) enforces: >25%
// ns/op or any allocs/op increase fails the bench job.
//
// The battery deliberately uses small fixed problem sizes so one pass
// stays in the seconds range on a 1-core CI runner; the numbers are for
// trend comparison between commits on the same runner class, not for
// absolute claims.
package dws_test

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dws/internal/bench"
	"dws/internal/deque"
	"dws/internal/kernels"
	"dws/internal/rt"
	"dws/internal/scenario"
	"dws/internal/sim"
	"dws/internal/topo"
)

const (
	benchFFTN   = 1 << 12
	benchSortN  = 1 << 14
	benchMatN   = 64
	benchHeatW  = 128
	benchHeatH  = 128
	benchHeatIt = 20
)

// runEntry runs one benchmark with allocation reporting (the in-process
// equivalent of -benchmem: testing.Benchmark always samples the allocation
// counters, ReportAllocs makes the intent explicit) and flattens the
// result into the committed JSON shape.
// benchRuns is how many times each entry is measured; the entry records
// the fastest run. Alloc counters are deterministic across runs, but
// ns/op on a shared box is one-sided noise (interference only ever adds
// time), so min-of-N is the stable statistic to gate on.
const benchRuns = 3

func runEntry(name string, fn func(b *testing.B)) bench.BenchEntry {
	var best bench.BenchEntry
	for i := 0; i < benchRuns; i++ {
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			fn(b)
		})
		e := bench.BenchEntry{
			Name:        name,
			Iters:       r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
		if len(r.Extra) > 0 {
			e.Extra = make(map[string]float64, len(r.Extra))
			for k, v := range r.Extra {
				e.Extra[k] = v
			}
		}
		if i == 0 || e.NsPerOp < best.NsPerOp {
			best = e
		}
	}
	return best
}

type namedBench struct {
	name string
	fn   func(b *testing.B)
}

// rtKernelBench benchmarks one kernel run end-to-end on the live runtime
// under pol: 4 core slots, one program, per-iteration input reset outside
// nothing (the copy is part of the op, exactly like the -seq entries, so
// rt-vs-seq ratios are apples to apples).
func rtKernelBench(pol rt.Policy, mk func(b *testing.B) (task rt.Task, reset func())) func(b *testing.B) {
	return rtKernelBenchCfg(rt.Config{Policy: pol}, mk)
}

// rtKernelBenchCfg fills the fixed 4-core single-program harness around
// cfg's policy/topology choices.
func rtKernelBenchCfg(cfg rt.Config, mk func(b *testing.B) (task rt.Task, reset func())) func(b *testing.B) {
	return func(b *testing.B) {
		cfg.Cores, cfg.Programs = 4, 1
		cfg.TSleep, cfg.CoordPeriod = 2, 2*time.Millisecond
		sys, err := rt.NewSystem(cfg)
		if err != nil {
			b.Fatalf("NewSystem: %v", err)
		}
		defer sys.Close()
		p, err := sys.NewProgram("bench")
		if err != nil {
			b.Fatalf("NewProgram: %v", err)
		}
		task, reset := mk(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			reset()
			if err := p.Run(task); err != nil {
				b.Fatalf("Run: %v", err)
			}
		}
	}
}

func fftRT(b *testing.B) (rt.Task, func()) {
	src := kernels.RandComplex(benchFFTN, 1)
	buf := make([]complex128, benchFFTN)
	return kernels.FFTTask(buf), func() { copy(buf, src) }
}

func mergesortRT(b *testing.B) (rt.Task, func()) {
	src := kernels.RandSlice(benchSortN, 1)
	buf := make([]int32, benchSortN)
	return kernels.MergesortTask(buf), func() { copy(buf, src) }
}

func choleskyRT(b *testing.B) (rt.Task, func()) {
	src := kernels.SPDMatrix(benchMatN, 1)
	buf := make([]float64, len(src))
	var ok bool
	return kernels.CholeskyTask(buf, benchMatN, &ok), func() { copy(buf, src) }
}

// coreBattery is the kernels sequentially, one of them under the runtime,
// and the deque.
func coreBattery() []namedBench {
	return []namedBench{
		{"kernels/fft-seq-4096", func(b *testing.B) {
			src := kernels.RandComplex(benchFFTN, 1)
			buf := make([]complex128, benchFFTN)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(buf, src)
				kernels.FFTSeq(buf)
			}
		}},
		{"kernels/mergesort-seq-16384", func(b *testing.B) {
			src := kernels.RandSlice(benchSortN, 1)
			buf := make([]int32, benchSortN)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(buf, src)
				kernels.MergesortSeq(buf)
			}
		}},
		{"kernels/cholesky-seq-64", func(b *testing.B) {
			src := kernels.SPDMatrix(benchMatN, 1)
			buf := make([]float64, len(src))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(buf, src)
				if !kernels.CholeskySeq(buf, benchMatN) {
					b.Fatal("cholesky failed on SPD input")
				}
			}
		}},
		{"kernels/lu-seq-64", func(b *testing.B) {
			src := kernels.DiagonallyDominant(benchMatN, 1)
			buf := make([]float64, len(src))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(buf, src)
				if !kernels.LUSeq(buf, benchMatN) {
					b.Fatal("lu failed on diagonally dominant input")
				}
			}
		}},
		{"kernels/ge-seq-64", func(b *testing.B) {
			a := kernels.DiagonallyDominant(benchMatN, 1)
			rhs := kernels.RandMatrix(benchMatN, 2)[:benchMatN]
			abuf := make([]float64, len(a))
			bbuf := make([]float64, benchMatN)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(abuf, a)
				copy(bbuf, rhs)
				if kernels.GESeq(abuf, bbuf, benchMatN) == nil {
					b.Fatal("ge failed on diagonally dominant input")
				}
			}
		}},
		{"kernels/heat-seq-128x128x20", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				g := kernels.NewGrid(benchHeatW, benchHeatH)
				b.StartTimer()
				kernels.HeatSeq(g, benchHeatIt)
			}
		}},
		{"kernels/fft-rt-dws-4096", rtKernelBench(rt.DWS, fftRT)},
		{"deque/push-pop", func(b *testing.B) {
			d := deque.New[int](8)
			v := 1
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.Push(&v)
				d.Pop()
			}
		}},
		{"deque/push-steal", func(b *testing.B) {
			d := deque.New[int](8)
			v := 1
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.Push(&v)
				d.Steal()
			}
		}},
		{"deque/locked-push-pop", func(b *testing.B) {
			d := deque.NewLocked[int](8)
			v := 1
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.Push(&v)
				d.Pop()
			}
		}},
	}
}

// hotpathBattery is the rt-overhead extension: three kernels end-to-end on
// the live runtime under DWS and ABP (fft-rt-dws already sits in the core
// battery), plus the deque's thief-side micro-benchmarks. Comparing each
// kernel entry against its -seq sibling isolates the scheduling overhead
// the paper claims is small.
func hotpathBattery() []namedBench {
	// stealHeavy drains a full batch through Steal per op — the thief-side
	// path only — so the steal cost dominates the measurement.
	const stealBatch = 256
	stealHeavy := func(b *testing.B) {
		d := deque.New[int](stealBatch)
		v := 1
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 0; j < stealBatch; j++ {
				d.Push(&v)
			}
			for j := 0; j < stealBatch; j++ {
				if d.Steal() == nil {
					b.Fatal("single-threaded steal lost an element")
				}
			}
		}
	}
	// contendedSteal pits nThieves live steal loops against one owner
	// cycling a fixed batch through Push/Pop — the N-thieves-vs-one-owner
	// shape two-phase victim selection concentrates on a loaded socket's
	// deques. Elements carry their slot index; an epoch-stamped claim
	// array tells a unique hand-out from a duplicate, which fails the
	// benchmark: ns/op per drained batch is the gated number.
	const contThieves = 3
	const contBatch = 256
	contendedSteal := func(b *testing.B) {
		d := deque.New[int](contBatch)
		ids := make([]int, contBatch)
		claims := make([]atomic.Int64, contBatch)
		for j := range ids {
			ids[j] = j
		}
		var epoch, taken, dups atomic.Int64
		// consume claims one hand-out: the first claim of a slot per
		// epoch is unique, every other is a duplicate. The CAS retry
		// loop is bounded (claims only ever advance toward the current
		// epoch).
		consume := func(p *int) bool {
			if p == nil {
				return false
			}
			for {
				e := epoch.Load()
				prev := claims[*p].Load()
				if prev >= e {
					dups.Add(1)
					return true
				}
				if claims[*p].CompareAndSwap(prev, e) {
					taken.Add(1)
					return true
				}
			}
		}
		var stop atomic.Bool
		var wg sync.WaitGroup
		for t := 0; t < contThieves; t++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for !stop.Load() {
					if !consume(d.Steal()) {
						runtime.Gosched()
					}
				}
			}()
		}
		var goal int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			epoch.Add(1)
			goal += contBatch
			for j := range ids {
				d.Push(&ids[j])
			}
			for taken.Load() < goal {
				if !consume(d.Pop()) {
					runtime.Gosched()
				}
			}
		}
		b.StopTimer()
		stop.Store(true)
		wg.Wait()
		if n := dups.Load(); n > 0 {
			b.Fatalf("deque handed out %d elements twice", n)
		}
	}
	return []namedBench{
		// What a served job pays around its kernel, on the benchmark's
		// null job (Cholesky at the 8×8 floor): resolving the kernel and
		// generating its input, and Run's own bookkeeping for a task
		// that spawns nothing.
		{"job/newtask-null", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				spec, ok := kernels.ByName("Cholesky")
				if !ok || spec.NewTask(0.001) == nil {
					b.Fatal("null kernel missing from the catalog")
				}
			}
		}},
		// The same set-up for the two kernels corun-mix serves, at its
		// size: input, scratch and the spawn tree as one slab. allocs/op
		// is the gated number — a closure per tree node would be 250 more.
		{"job/newtask-mergesort-0.05", newTaskBench("Mergesort", 0.05)},
		{"job/newtask-fft-0.05", newTaskBench("FFT", 0.05)},
		{"job/run-null", rtKernelBench(rt.DWS, func(*testing.B) (rt.Task, func()) {
			return func(*rt.Ctx) {}, func() {}
		})},
		// The simulator twin of the entries above: one open-loop replay of
		// the overload-storm trace under DWS (machine construction and
		// the summary included, graph building not), and the whole gated scenario
		// suite — every catalog trace prepared once and replayed under
		// every policy, fanned out as `benchgate -scenarios` runs it.
		{"sim/runopen-overload-storm-dws", simRunOpenStorm},
		{"sim/scenario-suite", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := bench.RunScenarioSuite(nil); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"kernels/fft-rt-abp-4096", rtKernelBench(rt.ABP, fftRT)},
		{"kernels/mergesort-rt-dws-16384", rtKernelBench(rt.DWS, mergesortRT)},
		{"kernels/mergesort-rt-abp-16384", rtKernelBench(rt.ABP, mergesortRT)},
		{"kernels/cholesky-rt-dws-64", rtKernelBench(rt.DWS, choleskyRT)},
		{"kernels/cholesky-rt-abp-64", rtKernelBench(rt.ABP, choleskyRT)},
		{"deque/steal-heavy-chaselev", stealHeavy},
		{"deque/contended-steal-chaselev", contendedSteal},
		// The socket twin of fft-rt-dws-4096: same kernel, same machine,
		// but with 2-core sockets so placement and two-phase victim
		// selection are live. Gating it next to the flat entry keeps the
		// locality path honest — it must stay alloc-identical (the victim
		// order is precomputed per worker) and within the ns/op tolerance.
		{"kernels/fft-rt-dws-socket-4096", rtKernelBenchCfg(rt.Config{
			Policy: rt.DWS, Topology: topo.Uniform(4, 2),
		}, fftRT)},
	}
}

// newTaskBench measures building one job's task — input data included —
// from the catalog entry name at the given size.
func newTaskBench(name string, size float64) func(b *testing.B) {
	return func(b *testing.B) {
		spec, ok := kernels.ByName(name)
		if !ok {
			b.Fatalf("%s missing from the catalog", name)
		}
		for i := 0; i < b.N; i++ {
			if spec.NewTask(size) == nil {
				b.Fatal("nil task")
			}
		}
	}
}

// simRunOpenStorm replays the prepared overload-storm trace under DWS with
// the suite's front-door settings: a machine built, sim.RunOpen run and the
// outcome summarised per op, the graphs built before the clock starts.
func simRunOpenStorm(b *testing.B) {
	tr, err := scenario.CompileByName("overload-storm")
	if err != nil {
		b.Fatal(err)
	}
	prepared, err := scenario.Prepare(tr)
	if err != nil {
		b.Fatal(err)
	}
	cfg := sim.DefaultConfig()
	cfg.Policy = sim.DWS
	opts := scenario.SimOptions{
		Config:    cfg,
		Admission: &sim.AdmissionOpts{GlobalCap: len(tr.Tenants()) * 8, EarlyReject: true},
	}
	replay := func() {
		if _, err := prepared.Sim(opts); err != nil {
			b.Fatal(err)
		}
	}
	// One untimed replay first: whatever the process allocates once would
	// otherwise be averaged over b.N, and allocs/op would depend on how
	// many iterations the host's speed buys.
	replay()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		replay()
	}
}

func writeBattery(t *testing.T, out string, battery []namedBench) {
	f := &bench.BenchFile{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
	}
	for _, bb := range battery {
		e := runEntry(bb.name, bb.fn)
		f.Entries = append(f.Entries, e)
		t.Logf("%-34s %10d iters  %12.1f ns/op  %6d B/op  %4d allocs/op",
			e.Name, e.Iters, e.NsPerOp, e.BytesPerOp, e.AllocsPerOp)
	}
	if err := bench.WriteBenchFile(out, f); err != nil {
		t.Fatalf("write %s: %v", out, err)
	}
	fmt.Printf("wrote %d benchmark entries to %s\n", len(f.Entries), out)
}

// TestWriteHotpathBench generates BENCH_hotpath.json — the core battery
// plus the rt-overhead benchmarks — which the CI bench job regenerates
// and gates against the committed copy via cmd/benchgate. Gated on
// BENCH_HOTPATH_OUT so a plain `go test ./...` never pays for a benchmark
// pass.
func TestWriteHotpathBench(t *testing.T) {
	out := os.Getenv("BENCH_HOTPATH_OUT")
	if out == "" {
		t.Skip("set BENCH_HOTPATH_OUT=<path> to generate the hotpath baseline")
	}
	writeBattery(t, out, append(coreBattery(), hotpathBattery()...))
}

// treeTask builds a shared binary spawn tree of the given depth (2^(d+1)−1
// task executions) out of closures constructed once, so repeated runs
// allocate nothing in user code and any allocation the measurement sees
// belongs to the runtime.
func treeTask(depth int, leaves *atomic.Int64) rt.Task {
	if depth == 0 {
		return func(*rt.Ctx) { leaves.Add(1) }
	}
	child := treeTask(depth-1, leaves)
	return func(c *rt.Ctx) {
		c.Spawn(child)
		c.Spawn(child)
		c.Sync()
	}
}

// TestSpawnExecuteSteadyStateZeroAlloc proves the per-task hot path is
// steady-state allocation-free: once the free-lists are warm, a run's
// allocation count is a small constant (Run's own bookkeeping belongs to
// the program) regardless of how many tasks the run spawns. A
// depth-9 tree executes 992 more tasks than a depth-4 tree; if Spawn or
// execute allocated per task, the delta would be ≥ 992 allocs/run.
func TestSpawnExecuteSteadyStateZeroAlloc(t *testing.T) {
	sys, err := rt.NewSystem(rt.Config{Cores: 4, Programs: 1, Policy: rt.ABP})
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	defer sys.Close()
	p, err := sys.NewProgram("alloc")
	if err != nil {
		t.Fatalf("NewProgram: %v", err)
	}

	var leaves atomic.Int64
	shallow := treeTask(4, &leaves) // 31 tasks
	deep := treeTask(9, &leaves)    // 1023 tasks

	measure := func(task rt.Task) float64 {
		// Warm every worker's free-lists (across runs all four workers
		// end up executing tasks) before measuring.
		for i := 0; i < 50; i++ {
			if err := p.Run(task); err != nil {
				t.Fatalf("warmup Run: %v", err)
			}
		}
		return testing.AllocsPerRun(20, func() {
			if err := p.Run(task); err != nil {
				t.Fatalf("Run: %v", err)
			}
		})
	}

	aShallow := measure(shallow)
	aDeep := measure(deep)
	t.Logf("allocs/run: depth-4 (31 tasks) = %.1f, depth-9 (1023 tasks) = %.1f", aShallow, aDeep)

	// Per-run constant overhead only: generous bound, but a per-task
	// allocation would blow through it by orders of magnitude.
	if aDeep > 40 {
		t.Errorf("deep run allocates %.1f allocs/run, want ≤ 40 (per-task allocation leak?)", aDeep)
	}
	// The real zero-alloc proof: 992 extra task executions must not add
	// allocations beyond pool-warmup jitter.
	if diff := aDeep - aShallow; diff > 8 {
		t.Errorf("992 extra tasks added %.1f allocs/run, want ≤ 8: Spawn/execute is not zero-alloc", diff)
	}
}

// slabNode is treeTask as kernels build their trees: one node of a full
// binary spawn tree laid out in a slice, children at 2i+1 and 2i+2.
type slabNode struct {
	tree   []slabNode
	i      int
	leaves *atomic.Int64
}

func (n *slabNode) Run(c *rt.Ctx) {
	l := 2*n.i + 1
	if l >= len(n.tree) {
		n.leaves.Add(1)
		return
	}
	c.SpawnRunner(&n.tree[l])
	c.SpawnRunner(&n.tree[l+1])
	c.Sync()
}

// TestSpawnRunnerZeroAlloc is TestSpawnExecuteSteadyStateZeroAlloc for
// the other kind of Runner: spawning pointers into a slab allocates no
// more per task than spawning func values, and every node runs once.
func TestSpawnRunnerZeroAlloc(t *testing.T) {
	sys, err := rt.NewSystem(rt.Config{Cores: 4, Programs: 1, Policy: rt.ABP})
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	defer sys.Close()
	p, err := sys.NewProgram("alloc")
	if err != nil {
		t.Fatalf("NewProgram: %v", err)
	}

	var leaves atomic.Int64
	slab := func(depth int) rt.Task {
		tree := make([]slabNode, 1<<(depth+1)-1)
		for i := range tree {
			tree[i] = slabNode{tree, i, &leaves}
		}
		return tree[0].Run
	}
	measure := func(task rt.Task) float64 {
		for i := 0; i < 50; i++ {
			if err := p.Run(task); err != nil {
				t.Fatalf("warmup Run: %v", err)
			}
		}
		return testing.AllocsPerRun(20, func() {
			if err := p.Run(task); err != nil {
				t.Fatalf("Run: %v", err)
			}
		})
	}

	aShallow := measure(slab(4)) // 31 tasks
	before := leaves.Load()
	aDeep := measure(slab(9)) // 1023 tasks
	if got, want := leaves.Load()-before, int64(71*512); got != want {
		t.Errorf("71 runs of a depth-9 tree ran %d leaves, want %d", got, want)
	}
	t.Logf("allocs/run: depth-4 (31 tasks) = %.1f, depth-9 (1023 tasks) = %.1f", aShallow, aDeep)
	if diff := aDeep - aShallow; aDeep > 40 || diff > 8 {
		t.Errorf("deep run allocates %.1f allocs/run, %.1f more than a shallow one; want ≤ 40 and ≤ 8: SpawnRunner is not zero-alloc", aDeep, diff)
	}
}
