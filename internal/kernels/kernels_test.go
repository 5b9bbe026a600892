package kernels

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"dws/internal/rt"
)

// run executes a task on a fresh single-program DWS system.
func run(t *testing.T, task rt.Task) {
	t.Helper()
	s, err := rt.NewSystem(rt.Config{
		Cores: 4, Programs: 1, Policy: rt.DWS, CoordPeriod: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	p, err := s.NewProgram("kernel")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Run(task); err != nil {
		t.Fatal(err)
	}
}

func randComplex(n int, seed int64) []complex128 {
	rng := rand.New(rand.NewSource(seed))
	a := make([]complex128, n)
	for i := range a {
		a[i] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
	}
	return a
}

func TestFFTSeqAgainstNaiveDFT(t *testing.T) {
	a := randComplex(64, 1)
	want := DFTNaive(a)
	FFTSeq(a)
	for i := range a {
		if cmplx.Abs(a[i]-want[i]) > 1e-9 {
			t.Fatalf("bin %d: %v != %v", i, a[i], want[i])
		}
	}
}

func TestFFTParallelMatchesSeq(t *testing.T) {
	a := randComplex(4096, 2)
	b := append([]complex128(nil), a...)
	FFTSeq(a)
	run(t, FFTTask(b))
	for i := range a {
		if cmplx.Abs(a[i]-b[i]) > 1e-6 {
			t.Fatalf("bin %d: parallel %v != sequential %v", i, b[i], a[i])
		}
	}
}

func TestFFTBadLengthPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { FFTSeq(make([]complex128, 3)) },
		func() { FFTTask(make([]complex128, 12)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("non-power-of-two length did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestMergesortSeq(t *testing.T) {
	a := RandSlice(10_000, 3)
	MergesortSeq(a)
	if !IsSorted(a) {
		t.Fatal("sequential mergesort output not sorted")
	}
}

func TestMergesortParallel(t *testing.T) {
	a := RandSlice(100_000, 4)
	want := append([]int32(nil), a...)
	MergesortSeq(want)
	run(t, MergesortTask(a))
	for i := range a {
		if a[i] != want[i] {
			t.Fatalf("index %d: %d != %d", i, a[i], want[i])
		}
	}
}

func TestMergesortEdgeCases(t *testing.T) {
	for _, n := range []int{0, 1, 2, 31, 32, 33} {
		a := RandSlice(n, int64(n))
		MergesortSeq(a)
		if !IsSorted(a) {
			t.Fatalf("n=%d not sorted", n)
		}
	}
}

// Property: parallel mergesort is a sorting function (sorted permutation).
func TestPropertyMergesort(t *testing.T) {
	f := func(xs []int32) bool {
		a := append([]int32(nil), xs...)
		MergesortSeq(a)
		if !IsSorted(a) {
			return false
		}
		counts := map[int32]int{}
		for _, x := range xs {
			counts[x]++
		}
		for _, x := range a {
			counts[x]--
		}
		for _, c := range counts {
			if c != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCholesky(t *testing.T) {
	const n = 48
	orig := SPDMatrix(n, 5)

	seq := append([]float64(nil), orig...)
	if !CholeskySeq(seq, n) {
		t.Fatal("sequential Cholesky rejected an SPD matrix")
	}
	if r := CholeskyResidual(seq, orig, n); r > 1e-8*float64(n) {
		t.Fatalf("sequential residual %g", r)
	}

	par := append([]float64(nil), orig...)
	var ok bool
	run(t, CholeskyTask(par, n, &ok))
	if !ok {
		t.Fatal("parallel Cholesky rejected an SPD matrix")
	}
	if r := CholeskyResidual(par, orig, n); r > 1e-8*float64(n) {
		t.Fatalf("parallel residual %g", r)
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := []float64{-1, 0, 0, -1}
	if CholeskySeq(a, 2) {
		t.Fatal("accepted a negative-definite matrix")
	}
	var ok bool
	b := []float64{-1, 0, 0, -1}
	run(t, CholeskyTask(b, 2, &ok))
	if ok {
		t.Fatal("parallel accepted a negative-definite matrix")
	}
}

func TestLU(t *testing.T) {
	const n = 48
	orig := DiagonallyDominant(n, 6)

	seq := append([]float64(nil), orig...)
	if !LUSeq(seq, n) {
		t.Fatal("sequential LU hit a zero pivot")
	}
	if r := LUResidual(seq, orig, n); r > 1e-8*float64(n) {
		t.Fatalf("sequential residual %g", r)
	}

	par := append([]float64(nil), orig...)
	var ok bool
	run(t, LUTask(par, n, &ok))
	if !ok {
		t.Fatal("parallel LU hit a zero pivot")
	}
	if r := LUResidual(par, orig, n); r > 1e-8*float64(n) {
		t.Fatalf("parallel residual %g", r)
	}
}

func TestLUZeroPivot(t *testing.T) {
	a := []float64{0, 1, 1, 0}
	if LUSeq(a, 2) {
		t.Fatal("accepted a zero pivot")
	}
}

func TestGE(t *testing.T) {
	const n = 48
	a := DiagonallyDominant(n, 7)
	b := make([]float64, n)
	for i := range b {
		b[i] = float64(i%7) - 3
	}

	aSeq := append([]float64(nil), a...)
	bSeq := append([]float64(nil), b...)
	x := GESeq(aSeq, bSeq, n)
	if x == nil {
		t.Fatal("sequential GE failed")
	}
	if r := SolveResidual(a, x, b, n); r > 1e-8*float64(n) {
		t.Fatalf("sequential residual %g", r)
	}

	aPar := append([]float64(nil), a...)
	bPar := append([]float64(nil), b...)
	xPar := make([]float64, n)
	var ok bool
	run(t, GETask(aPar, bPar, n, xPar, &ok))
	if !ok {
		t.Fatal("parallel GE failed")
	}
	if r := SolveResidual(a, xPar, b, n); r > 1e-8*float64(n) {
		t.Fatalf("parallel residual %g", r)
	}
}

func TestHeat(t *testing.T) {
	seqG := NewGrid(40, 24)
	parG := seqG.Clone()
	HeatSeq(seqG, 25)
	run(t, HeatTask(parG, 25))
	for i := range seqG.Cells {
		if seqG.Cells[i] != parG.Cells[i] {
			t.Fatalf("cell %d: parallel %g != sequential %g", i, parG.Cells[i], seqG.Cells[i])
		}
	}
	// Heat must flow: an interior cell below the hot edge warms up.
	if seqG.Cells[2*seqG.W+seqG.W/2] <= 0 {
		t.Fatal("no heat propagated")
	}
}

func TestSOR(t *testing.T) {
	seqG := NewGrid(40, 24)
	parG := seqG.Clone()
	SORSeq(seqG, 25, 1.5)
	run(t, SORTask(parG, 25, 1.5))
	for i := range seqG.Cells {
		if seqG.Cells[i] != parG.Cells[i] {
			t.Fatalf("cell %d: parallel %g != sequential %g", i, parG.Cells[i], seqG.Cells[i])
		}
	}
}

func TestSORConvergesTowardLaplace(t *testing.T) {
	g := NewGrid(16, 16)
	SORSeq(g, 500, 1.7)
	// After many sweeps the residual of the interior Laplace equation is
	// small.
	var worst float64
	for y := 1; y < g.H-1; y++ {
		for x := 1; x < g.W-1; x++ {
			i := y*g.W + x
			r := g.Cells[i] - 0.25*(g.Cells[i-1]+g.Cells[i+1]+g.Cells[i-g.W]+g.Cells[i+g.W])
			if math.Abs(r) > worst {
				worst = math.Abs(r)
			}
		}
	}
	if worst > 1e-3 {
		t.Fatalf("Laplace residual %g after 500 sweeps", worst)
	}
}

func TestPNN(t *testing.T) {
	net := NewPNN(8, []int{24, 12, 6}, 9)
	if net.Inputs() != 8 || net.Outputs() != 6 {
		t.Fatalf("Inputs/Outputs = %d/%d", net.Inputs(), net.Outputs())
	}
	batch := RandBatch(200, 8, 10)
	want := net.ForwardSeq(batch)
	got := make([][]float64, len(batch))
	run(t, net.ForwardTask(batch, got))
	for s := range want {
		for i := range want[s] {
			if want[s][i] != got[s][i] {
				t.Fatalf("sample %d output %d: %g != %g", s, i, got[s][i], want[s][i])
			}
		}
	}
}

func TestPNNDeterministic(t *testing.T) {
	a := NewPNN(4, []int{8, 4}, 42)
	b := NewPNN(4, []int{8, 4}, 42)
	batch := RandBatch(10, 4, 1)
	oa, ob := a.ForwardSeq(batch), b.ForwardSeq(batch)
	for s := range oa {
		for i := range oa[s] {
			if oa[s][i] != ob[s][i] {
				t.Fatal("same seed produced different networks")
			}
		}
	}
}

func TestHelpers(t *testing.T) {
	if m := RandMatrix(4, 1); len(m) != 16 {
		t.Fatal("RandMatrix size")
	}
	spd := SPDMatrix(6, 2)
	// SPD matrices are symmetric.
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			if math.Abs(spd[i*6+j]-spd[j*6+i]) > 1e-12 {
				t.Fatal("SPDMatrix not symmetric")
			}
		}
	}
	dd := DiagonallyDominant(5, 3)
	for i := 0; i < 5; i++ {
		var off float64
		for j := 0; j < 5; j++ {
			if i != j {
				off += math.Abs(dd[i*5+j])
			}
		}
		if math.Abs(dd[i*5+i]) <= off {
			t.Fatal("matrix not diagonally dominant")
		}
	}
}

// TestGenerators pins what every input generator promises — the same
// seed gives the same data, another seed gives other data — for each of
// them, since they all draw from the one stream.
func TestGenerators(t *testing.T) {
	flat := func(rows [][]float64) []float64 {
		var out []float64
		for _, r := range rows {
			out = append(out, r...)
		}
		return out
	}
	gens := []struct {
		name string
		gen  func(seed int64) []float64
	}{
		{"RandMatrix", func(s int64) []float64 { return RandMatrix(12, s) }},
		{"SPDMatrix", func(s int64) []float64 { return SPDMatrix(12, s) }},
		{"DiagonallyDominant", func(s int64) []float64 { return DiagonallyDominant(12, s) }},
		{"RandBatch", func(s int64) []float64 { return flat(RandBatch(9, 5, s)) }},
		{"RandSlice", func(s int64) []float64 {
			var out []float64
			for _, v := range RandSlice(100, s) {
				out = append(out, float64(v))
			}
			return out
		}},
		{"RandComplex", func(s int64) []float64 {
			var out []float64
			for _, v := range RandComplex(64, s) {
				out = append(out, real(v), imag(v))
			}
			return out
		}},
		{"NewPNN", func(s int64) []float64 {
			return flat(NewPNN(5, []int{8, 4}, s).ForwardSeq(RandBatch(9, 5, 1)))
		}},
	}
	equal := func(a, b []float64) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	for _, g := range gens {
		if a := g.gen(7); len(a) == 0 || !equal(a, g.gen(7)) {
			t.Errorf("%s: the same seed gave different (or no) data", g.name)
		}
		if equal(g.gen(7), g.gen(8)) {
			t.Errorf("%s: seeds 7 and 8 gave the same data", g.name)
		}
	}

	neg, pos := 0, 0
	for _, v := range RandMatrix(64, 3) {
		if v < -1 || v >= 1 {
			t.Fatalf("RandMatrix entry %g outside [-1, 1)", v)
		}
		if v < 0 {
			neg++
		} else {
			pos++
		}
	}
	if neg < 1500 || pos < 1500 {
		t.Errorf("RandMatrix(64) has %d negative and %d non-negative entries of 4096, want about half each", neg, pos)
	}
}

// TestGeneratedMatricesFactorise: at the smallest, a middling and the
// full catalog dimension, SPDMatrix is a valid Cholesky input and
// DiagonallyDominant eliminates without pivoting.
func TestGeneratedMatricesFactorise(t *testing.T) {
	for _, n := range []int{8, 64, 384} {
		spd := SPDMatrix(n, 12)
		l := append([]float64(nil), spd...)
		if !CholeskySeq(l, n) {
			t.Errorf("n=%d: CholeskySeq rejected SPDMatrix", n)
		} else if r := CholeskyResidual(l, spd, n); r > 1e-8*float64(n) {
			t.Errorf("n=%d: Cholesky residual %g", n, r)
		}
		dd := DiagonallyDominant(n, 13)
		lu := append([]float64(nil), dd...)
		if !LUSeq(lu, n) {
			t.Errorf("n=%d: LUSeq hit a zero pivot on DiagonallyDominant", n)
		} else if r := LUResidual(lu, dd, n); r > 1e-8*float64(n) {
			t.Errorf("n=%d: LU residual %g", n, r)
		}
	}
}

// TestNullJobSetupAllocs pins what the job server pays before a small
// job's kernel runs: the lookup reads the catalog in place, and the
// task's inputs cost the two matrices, the result flag and the task
// closure — no generator state.
func TestNullJobSetupAllocs(t *testing.T) {
	var task rt.Task
	got := testing.AllocsPerRun(100, func() {
		spec, ok := ByName("Cholesky")
		if !ok {
			t.Fatal("Cholesky missing from the catalog")
		}
		task = spec.NewTask(0.001)
	})
	if task == nil || got > 4 {
		t.Errorf("ByName + NewTask(0.001) allocates %v times, want at most 4", got)
	}
}

// TestMergesortTaskRerun runs the parallel sort the way a benchmark and a
// served tenant do — the task built once, the input refilled, Run again —
// at the sizes where the tree changes: nothing to do, one leaf either side
// of msCutoff, one spawn level with an odd split, two levels with unequal
// leaves, and the catalog's 200 000. Every run must sort, agree with
// MergesortSeq, and allocate nothing per merge or per node: the merge
// buffer and the tree are the task's.
func TestMergesortTaskRerun(t *testing.T) {
	p := benchSystem(t)
	for _, n := range []int{0, 1, 2, msCutoff - 1, msCutoff, msCutoff + 1, 2*msCutoff + 1, 3*msCutoff + 1, 200_000} {
		a := make([]int32, n)
		task := MergesortTask(a)
		runOnce := func() {
			if err := p.Run(task); err != nil {
				t.Fatal(err)
			}
		}
		for round := 0; round < 3; round++ {
			src := RandSlice(n, int64(n+round))
			copy(a, src)
			runOnce()
			MergesortSeq(src)
			for i := range src {
				if a[i] != src[i] {
					t.Fatalf("n=%d round %d index %d: parallel %d, sequential %d", n, round, i, a[i], src[i])
				}
			}
			if !IsSorted(a) {
				t.Fatalf("n=%d round %d: not sorted", n, round)
			}
		}
		// a stays sorted from here on, which the run does not care about.
		// The workers' node and frame free lists fill over the first few
		// runs of a tree this deep; after that a run allocates nothing of
		// its own. A run long enough to park workers and see coordinator
		// ticks (200 000 keys under -race) also counts the odd sudog and
		// timer of theirs, so the bound is "fewer than one per merge" —
		// which at one merge a run is none at all.
		for warm := 0; warm < 10; warm++ {
			runOnce()
		}
		if got, bound := testing.AllocsPerRun(10, runOnce), max(1, msMerges(n)); got >= float64(bound) {
			t.Errorf("n=%d: re-running the task allocates %v times, want fewer than %d", n, got, bound)
		}
	}
}

// msMerges is the number of inner nodes in MergesortTask's tree over n keys.
func msMerges(n int) int {
	if n <= msCutoff {
		return 0
	}
	return 1 + msMerges(n/2) + msMerges(n-n/2)
}

// TestNewTaskAllocs pins what a served Mergesort or FFT job allocates
// before its kernel runs: the input, the scratch buffer, the spawn tree
// as one slab (the FFT's twiddle table too) and the task value — not an
// object per tree node, of which there are 255 and 127.
func TestNewTaskAllocs(t *testing.T) {
	for _, name := range []string{"Mergesort", "FFT"} {
		spec, ok := ByName(name)
		if !ok {
			t.Fatalf("%s missing from the catalog", name)
		}
		var task rt.Task
		got := testing.AllocsPerRun(10, func() { task = spec.NewTask(0.05) })
		if task == nil || got > 6 {
			t.Errorf("%s NewTask(0.05) allocates %v times, want at most 6", name, got)
		}
	}
}
