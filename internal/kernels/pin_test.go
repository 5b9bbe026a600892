package kernels

import (
	"math"
	"math/cmplx"
	"runtime"
	"sort"
	"strings"
	"testing"

	"dws/internal/rt"
	"dws/internal/task"
)

// Pins of what a kernel rewrite must not move: the spawn-tree shape
// rt.RecordGraph sees, merge's result on the awkward inputs, and the
// three FFTs agreeing where the decomposition changes.

// TestRecordedGraphPins pins the fork-join shape rt.RecordGraph sees on
// the two catalog inputs corun-mix serves (NewTask(0.05)): node, leaf and
// stage counts. A leaf records one stage, an inner node two (spawn both
// halves, then the sequential merge/combine), so the counts move if a
// cutoff, the split or the one-merge-per-inner-node rule does.
func TestRecordedGraphPins(t *testing.T) {
	cases := []struct {
		name                  string
		task                  rt.Task
		nodes, leaves, stages int
		depth                 int
	}{
		{"mergesort-200k", MergesortTask(RandSlice(200_000, 11)), 255, 128, 382, 8},
		{"fft-16k", FFTTask(RandComplex(1<<14, 7)), 127, 64, 190, 7},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := rt.RecordGraph(tc.name, 0.5, tc.task)
			if err := task.Validate(g); err != nil {
				t.Fatal(err)
			}
			var nodes, leaves, stages, depth int
			task.Walk(g, func(n *task.Node, d int) bool {
				nodes++
				stages += len(n.Stages)
				if d > depth {
					depth = d
				}
				children := 0
				for _, st := range n.Stages {
					children += len(st.Children)
				}
				switch children {
				case 0:
					leaves++
				case 2:
					if len(n.Stages) != 2 || len(n.Stages[0].Children) != 2 {
						t.Errorf("inner node at depth %d: %d stages, %d children in the first; want 2 and 2",
							d, len(n.Stages), len(n.Stages[0].Children))
					}
				default:
					t.Errorf("node at depth %d spawns %d children, want 0 or 2", d, children)
				}
				return true
			})
			if nodes != tc.nodes || leaves != tc.leaves || stages != tc.stages || depth != tc.depth {
				t.Errorf("recorded nodes/leaves/stages/depth = %d/%d/%d/%d, want %d/%d/%d/%d",
					nodes, leaves, stages, depth, tc.nodes, tc.leaves, tc.stages, tc.depth)
			}
		})
	}
}

// TestMergeTable checks merge against sort.Slice over the shapes where a
// two-run merge goes wrong: empty and one-element runs, mid at either
// end, ties, a left run that is entirely greater, and the int32 extremes.
func TestMergeTable(t *testing.T) {
	seq := func(n int, f func(i int) int32) []int32 {
		a := make([]int32, n)
		for i := range a {
			a[i] = f(i)
		}
		return a
	}
	cases := []struct {
		name string
		a    []int32 // the two runs are sorted below, so any order does here
		mid  int
	}{
		{"empty", nil, 0},
		{"one-left", []int32{7}, 1},
		{"one-right", []int32{7}, 0},
		{"two-ordered", []int32{1, 2}, 1},
		{"two-swapped", []int32{2, 1}, 1},
		{"two-equal", []int32{5, 5}, 1},
		{"odd", []int32{9, 3, 7, 1, 8}, 2},
		{"odd-long-left", []int32{9, 3, 7, 1, 8}, 3},
		{"mid-zero", []int32{4, 1, 3, 2}, 0},
		{"mid-len", []int32{4, 1, 3, 2}, 4},
		{"all-equal", seq(101, func(int) int32 { return 42 }), 50},
		{"sorted", seq(100, func(i int) int32 { return int32(i) }), 37},
		{"reversed", seq(100, func(i int) int32 { return int32(100 - i) }), 50},
		{"left-all-greater", seq(64, func(i int) int32 {
			if i < 40 {
				return int32(1000 + i)
			}
			return int32(i)
		}), 40},
		{"right-all-greater", seq(64, func(i int) int32 { return int32(i) }), 24},
		{"extremes", []int32{math.MaxInt32, math.MinInt32, 0, math.MinInt32, math.MaxInt32, -1, 1, math.MaxInt32, math.MinInt32}, 4},
		{"random-10k", RandSlice(10_000, 5), 5_000},
		{"random-10k-skewed", RandSlice(10_001, 6), 1_234},
		{"random-narrow-keys", seq(10_000, func(i int) int32 { return int32(i*7919%13) - 6 }), 4_999},
	}
	less := func(s []int32) func(i, j int) bool {
		return func(i, j int) bool { return s[i] < s[j] }
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := append([]int32(nil), tc.a...)
			sort.Slice(a[:tc.mid], less(a[:tc.mid]))
			sort.Slice(a[tc.mid:], less(a[tc.mid:]))
			want := append([]int32(nil), a...)
			sort.Slice(want, less(want))

			merge(a, tc.mid, make([]int32, len(a)))
			for i := range want {
				if a[i] != want[i] {
					t.Fatalf("index %d: merged %d, want %d", i, a[i], want[i])
				}
			}
		})
	}
}

// checkMerge sorts the two runs of a around mid, merges them through a
// buffer of exactly len(a) and compares with sort.Slice of the whole.
func checkMerge(t *testing.T, a []int32, mid int) {
	t.Helper()
	less := func(s []int32) func(i, j int) bool {
		return func(i, j int) bool { return s[i] < s[j] }
	}
	sort.Slice(a[:mid], less(a[:mid]))
	sort.Slice(a[mid:], less(a[mid:]))
	want := append([]int32(nil), a...)
	sort.Slice(want, less(want))
	merge(a, mid, make([]int32, len(a)))
	for i := range want {
		if a[i] != want[i] {
			t.Fatalf("len %d, mid %d, index %d: merged %d, want %d", len(a), mid, i, a[i], want[i])
		}
	}
}

// TestMergeMeetingPoint pins where merge's two chains meet. Its front
// chain breaks ties towards the left run and its back chain towards the
// right one; were they not one order read from both ends, an element
// would be emitted twice or not at all where the middle loop takes over.
// So: every pair of run lengths up to 40 in all with keys from {0, 1, 2}
// (ties straddle the meeting point at every length), the int32 extremes,
// and every split of 65 elements, where the middle loop does most of the
// work at one end and a single element at the other.
func TestMergeMeetingPoint(t *testing.T) {
	r := newStream(40)
	for total := 0; total <= 40; total++ {
		for mid := 0; mid <= total; mid++ {
			for draw := 0; draw < 8; draw++ {
				a := make([]int32, total)
				for i := range a {
					a[i] = int32(r.intn(3))
				}
				checkMerge(t, a, mid)
			}
		}
	}
	ext := []int32{math.MinInt32, math.MaxInt32, math.MinInt32, math.MaxInt32, 0, math.MaxInt32, math.MinInt32, -1}
	for mid := 0; mid <= len(ext); mid++ {
		checkMerge(t, append([]int32(nil), ext...), mid)
	}
	for mid := 0; mid <= 65; mid++ {
		checkMerge(t, RandSlice(65, int64(mid)), mid)
		narrow := RandSlice(65, int64(100+mid))
		for i := range narrow {
			narrow[i] &= 3
		}
		checkMerge(t, narrow, mid)
	}
}

// TestMergeShortBufPanics: merge needs a buffer as long as a (the merge
// before it made do with buf[:mid]); one it cannot reslice to len(a) is a
// slice-bounds panic before anything is written, not a partial merge.
func TestMergeShortBufPanics(t *testing.T) {
	a := []int32{1, 3, 5, 2, 4, 6}
	before := append([]int32(nil), a...)
	defer func() {
		err, ok := recover().(runtime.Error)
		if !ok || !strings.Contains(err.Error(), "slice bounds out of range") {
			t.Fatalf("merge with a short buffer: recovered %v, want a slice-bounds runtime error", err)
		}
		for i := range a {
			if a[i] != before[i] {
				t.Fatalf("a = %v after the panic, want it untouched (%v)", a, before)
			}
		}
	}()
	merge(a, 3, make([]int32, len(a)-1))
	t.Fatal("merge with a short buffer returned")
}

// FuzzMerge is checkMerge over arbitrary runs: a key per byte (so ties are
// the common case), 0x80 and 0x7f standing for the int32 extremes, the
// split anywhere from 0 to len.
func FuzzMerge(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, mid uint16) {
		a := make([]int32, len(data))
		for i, b := range data {
			switch v := int8(b); v {
			case math.MinInt8:
				a[i] = math.MinInt32
			case math.MaxInt8:
				a[i] = math.MaxInt32
			default:
				a[i] = int32(v)
			}
		}
		checkMerge(t, a, int(mid)%(len(a)+1))
	})
}

// dftBin is one bin of the O(n²) definition, with the angle reduced mod
// n so that it stays accurate at lengths where DFTNaive's does not.
func dftBin(a []complex128, k int) complex128 {
	n := len(a)
	var sum complex128
	for t := range a {
		angle := -2 * math.Pi * float64(k*t%n) / float64(n)
		sum += a[t] * cmplx.Exp(complex(0, angle))
	}
	return sum
}

// TestFFTTaskSeqNaiveAgree: the parallel transform, the sequential one
// and the definition agree at the lengths where the decomposition
// changes — no butterfly, one butterfly, one leaf block, one spawn
// level, and the catalog's 2¹⁴ — within the tolerances
// TestFFTSeqAgainstNaiveDFT and TestFFTParallelMatchesSeq already use.
func TestFFTTaskSeqNaiveAgree(t *testing.T) {
	for _, n := range []int{1, 2, fftCutoff, 2 * fftCutoff, 1 << 14} {
		in := RandComplex(n, int64(n))
		seq := append([]complex128(nil), in...)
		par := append([]complex128(nil), in...)
		FFTSeq(seq)
		run(t, FFTTask(par))
		for i := range seq {
			if cmplx.Abs(seq[i]-par[i]) > 1e-6 {
				t.Fatalf("n=%d bin %d: parallel %v != sequential %v", n, i, par[i], seq[i])
			}
		}
		if n <= 2*fftCutoff {
			want := DFTNaive(in)
			for i := range want {
				if cmplx.Abs(seq[i]-want[i]) > 1e-9 {
					t.Fatalf("n=%d bin %d: FFTSeq %v != DFTNaive %v", n, i, seq[i], want[i])
				}
			}
			continue
		}
		// The full definition is 2.7·10⁸ terms here; a spread of bins
		// (both ends, the Nyquist bin, odd ones) is as telling.
		for _, k := range []int{0, 1, 2, 3, 255, 256, 257, n/2 - 1, n / 2, n/2 + 1, 12345, n - 2, n - 1} {
			want := dftBin(in, k)
			if cmplx.Abs(seq[k]-want) > 1e-9 || cmplx.Abs(par[k]-want) > 1e-6 {
				t.Fatalf("n=%d bin %d: FFTSeq %v, FFTTask %v, definition %v", n, k, seq[k], par[k], want)
			}
		}
	}
}

// TestSPDMatrixBits pins SPDMatrix's row-order build to the column-walking
// triple loop it replaced, compared with ==: every entry sums the same
// products from 0 in the same order, so it must have the same bits.
func TestSPDMatrixBits(t *testing.T) {
	for _, n := range []int{1, 8, 33, 96} {
		a := RandMatrix(n, 12)
		want := make([]float64, n*n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				var s float64
				for k := 0; k < n; k++ {
					s += a[k*n+i] * a[k*n+j]
				}
				want[i*n+j] = s
			}
			want[i*n+i] += float64(n)
		}
		got := SPDMatrix(n, 12)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d entry (%d,%d): %v, the triple loop gives %v", n, i/n, i%n, got[i], want[i])
			}
		}
	}
}

// TestRandBatchOneArray: RandBatch's rows, carved from one array, hold
// the values a slice per row drew, and each is capped at its own end (an
// append to one must not write into the next). PNN's catalog batch
// (1 000 rows at size 0.05) costs a few allocations, not one per row.
func TestRandBatchOneArray(t *testing.T) {
	const n, width = 33, 5
	rng := newStream(2)
	got := RandBatch(n, width, 2)
	if len(got) != n {
		t.Fatalf("%d rows, want %d", len(got), n)
	}
	for i, row := range got {
		if len(row) != width || cap(row) != width {
			t.Fatalf("row %d: len %d cap %d, want %d and %d", i, len(row), cap(row), width, width)
		}
		for j, v := range row {
			if want := rng.unit(); v != want {
				t.Fatalf("row %d feature %d: %v, want %v", i, j, v, want)
			}
		}
	}
	rows := dim(20_000, 0.05)
	if allocs := testing.AllocsPerRun(10, func() { RandBatch(rows, 16, 2) }); allocs > 6 {
		t.Errorf("RandBatch(%d, 16) allocates %v times, want at most 6", rows, allocs)
	}
}
