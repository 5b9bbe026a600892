package kernels

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"dws/internal/rt"
	"dws/internal/task"
	"dws/internal/workload"
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
		{"mergesort-200k", MergesortTask(RandSlice(200_000, 11)), 31, 16, 46, 5},
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

// TestMergesortIsP8: the catalog's full-size Mergesort job records the
// tree the simulator runs for the paper's p-8 (workload.Mergesort(1.0)):
// the same node count and depth, and 256 leaves. msCutoff is what sets
// it; a finer grain records a deeper tree than the one simulated.
func TestMergesortIsP8(t *testing.T) {
	spec, _ := ByName("Mergesort")
	live := rt.RecordGraph("Mergesort", 0.4, spec.NewTask(1.0))
	if err := task.Validate(live); err != nil {
		t.Fatal(err)
	}
	got, want := task.Analyze(live), task.Analyze(workload.Mergesort(1.0))
	if got.Nodes != want.Nodes || got.MaxDepth != want.MaxDepth {
		t.Errorf("live Mergesort(1.0) records %d nodes at depth %d; p-8 has %d at depth %d",
			got.Nodes, got.MaxDepth, want.Nodes, want.MaxDepth)
	}
	leaves := 0
	task.Walk(live, func(n *task.Node, _ int) bool {
		if len(n.Stages) == 1 && len(n.Stages[0].Children) == 0 {
			leaves++
		}
		return true
	})
	if leaves != 256 {
		t.Errorf("live Mergesort(1.0) records %d leaves, want p-8's 256", leaves)
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

// TestRadixLeafKeys holds the leaf's radix sort to slices.Sort on the
// keys that break one: all equal, already sorted, reversed, the int32
// extremes and their neighbours mixed, and for each of the four digits
// keys that differ in that byte alone, so that a pass which orders its
// digit wrongly, or goes missing, shows. Each block is sorted through a
// buffer of exactly its length, as a leaf's half of the merge buffer is.
func TestRadixLeafKeys(t *testing.T) {
	cases := map[string][]int32{}
	random := RandSlice(msCutoff, 5)
	equal := make([]int32, msCutoff)
	for i := range equal {
		equal[i] = -7
	}
	cases["equal"] = equal
	sorted := slices.Clone(random)
	slices.Sort(sorted)
	cases["sorted"] = sorted
	cases["reversed"] = slices.Clone(sorted)
	slices.Reverse(cases["reversed"])
	ext := []int32{math.MinInt32, -1, 0, 1, math.MaxInt32}
	var every []int32 // every sequence of four of ext, one after another
	for i := 0; i < 625; i++ {
		for j, k := i, 0; k < 4; j, k = j/5, k+1 {
			every = append(every, ext[j%5])
		}
	}
	cases["extremes"] = every
	mixed := make([]int32, 1562)
	for i, v := range random[:len(mixed)] {
		mixed[i] = ext[uint32(v)%5]
	}
	cases["extremes-random"] = mixed
	for d := 0; d < 4; d++ {
		shift := 8 * d
		for _, base := range []uint32{0, 0x8123_4567, 0x7edc_ba98, 0xffff_ffff} {
			keys := make([]int32, 700)
			for i, v := range random[:len(keys)] {
				keys[i] = int32(base&^(0xff<<shift) | uint32(v)&(0xff<<shift))
			}
			cases[fmt.Sprintf("digit%d-%08x", d, base)] = keys
		}
	}
	for name, a := range cases {
		want := slices.Clone(a)
		slices.Sort(want)
		radixSort(a, make([]int32, len(a)))
		if i := firstDiff(a, want); i >= 0 {
			t.Errorf("%s: index %d: radix sorted %d, want %d", name, i, a[i], want[i])
		}
	}
}

// FuzzMergesort: at a length from 0 to 2·msCutoff+1, so one leaf or a
// split, MergesortTask on a 2-core program and MergesortSeq both give
// slices.Sort's order. Each key is 4 of the fuzzer's bytes, cycled, so
// every radix digit of every key is the fuzzer's to choose.
func FuzzMergesort(f *testing.F) {
	f.Add(uint16(0), []byte{})
	f.Add(uint16(5), []byte{0x80, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 1, 0x7f, 0xff, 0xff, 0xff})
	f.Add(uint16(msCutoff), []byte("a leaf of its own"))
	f.Add(uint16(msCutoff+1), []byte{1, 2, 3})
	f.Add(uint16(2*msCutoff+1), []byte{0x12, 0x34, 0x56, 0x78, 0x9a})
	s, err := rt.NewSystem(rt.Config{Cores: 2, Programs: 1, Policy: rt.DWS})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(s.Close)
	p, err := s.NewProgram("fuzz")
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, n uint16, data []byte) {
		a := make([]int32, int(n)%(2*msCutoff+2))
		for i := range a {
			var u uint32
			for b := 0; b < 4 && len(data) > 0; b++ {
				u = u<<8 | uint32(data[(4*i+b)%len(data)])
			}
			a[i] = int32(u)
		}
		want := slices.Clone(a)
		slices.Sort(want)
		seq := slices.Clone(a)
		MergesortSeq(seq)
		if i := firstDiff(seq, want); i >= 0 {
			t.Fatalf("n=%d: MergesortSeq index %d = %d, want %d", len(a), i, seq[i], want[i])
		}
		if err := p.Run(MergesortTask(a)); err != nil {
			t.Fatal(err)
		}
		if i := firstDiff(a, want); i >= 0 {
			t.Fatalf("n=%d: MergesortTask index %d = %d, want %d", len(a), i, a[i], want[i])
		}
	})
}

// firstDiff is the first index where a and b differ, or -1.
func firstDiff(a, b []int32) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
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

// TestFFTTaskIsFFTSeqBits: the parallel transform is FFTSeq's, bit for
// bit, at every length a served job can have (2⁰…2¹⁸). Its leaves and
// inner nodes run FFTSeq's butterflies on the same operands, so no
// reordering of the tree may round differently.
func TestFFTTaskIsFFTSeqBits(t *testing.T) {
	for k := 0; k <= 18; k++ {
		n := 1 << k
		seq := RandComplex(n, int64(n))
		par := append([]complex128(nil), seq...)
		FFTSeq(seq)
		run(t, FFTTask(par))
		if !sameBits(seq, par) {
			t.Errorf("n=2^%d: FFTTask's output differs from FFTSeq's in its bits", k)
		}
	}
}

// TestLeafGatherIsBitReverse: a leaf's byte-reversal gather reads
// in[rev_m(off+i)], the bits.Reverse64 index, for every transform length
// 2ᵐ up to 2¹⁸, every leaf length up to min(2ᵐ, fftCutoff) and every
// offset of such a leaf.
func TestLeafGatherIsBitReverse(t *testing.T) {
	for m := 0; m <= 18; m++ {
		n := 1 << m
		in := make([]complex128, n)
		for j := range in {
			in[j] = complex(float64(j), 0)
		}
		for l := 1; l <= min(n, fftCutoff); l <<= 1 {
			a := make([]complex128, l)
			for off := 0; off < n; off += l {
				gather(a, in, off)
				for i, v := range a {
					if want := bits.Reverse64(uint64(off+i)) >> (64 - m); real(v) != float64(want) {
						t.Fatalf("n=2^%d, leaf of %d at %d: a[%d] = in[%v], want in[%d]", m, l, off, i, real(v), want)
					}
				}
			}
		}
	}
}

// FuzzFFT: at a length from 2⁰ to 2¹² and over finite inputs from the
// fuzzer's bytes, FFTTask is FFTSeq bit for bit, and up to 256 points
// FFTSeq is the definition within TestFFTSeqAgainstNaiveDFT's 1e-9. Each
// part of an input is 8 of the bytes, cycled, read as a float64: a NaN or
// an infinity reads as 0 and a magnitude of 1 or more as its Frexp
// fraction, so every input lies in (−1, 1), subnormals and −0 included.
func FuzzFFT(f *testing.F) {
	f.Add(uint8(0), []byte{})
	f.Add(uint8(3), []byte{0x3f, 0xf0, 0, 0, 0, 0, 0, 1, 0x80})
	f.Add(uint8(8), []byte("the served FFT"))
	f.Add(uint8(12), []byte{0xbf, 0xe5, 0x55, 0x55, 0x55, 0x55, 0x55, 0x55, 0, 0, 0, 0, 0, 0, 0, 1, 0xff})
	p := benchSystem(f)
	f.Fuzz(func(t *testing.T, k uint8, data []byte) {
		n := 1 << (k % 13)
		part := func(j int) float64 {
			if len(data) == 0 {
				return 0
			}
			var u uint64
			for b := 0; b < 8; b++ {
				u = u<<8 | uint64(data[(8*j+b)%len(data)])
			}
			switch x := math.Float64frombits(u); {
			case math.IsNaN(x) || math.IsInf(x, 0):
				return 0
			case math.Abs(x) >= 1:
				frac, _ := math.Frexp(x)
				return frac
			default:
				return x
			}
		}
		in := make([]complex128, n)
		for i := range in {
			in[i] = complex(part(2*i), part(2*i+1))
		}
		seq := append([]complex128(nil), in...)
		par := append([]complex128(nil), in...)
		FFTSeq(seq)
		if err := p.Run(FFTTask(par)); err != nil {
			t.Fatal(err)
		}
		if !sameBits(seq, par) {
			t.Fatalf("n=%d: FFTTask's output differs from FFTSeq's in its bits", n)
		}
		if n > fftCutoff {
			return
		}
		want := DFTNaive(in)
		for i := range want {
			if cmplx.Abs(seq[i]-want[i]) > 1e-9 {
				t.Fatalf("n=%d bin %d: FFTSeq %v != DFTNaive %v", n, i, seq[i], want[i])
			}
		}
	})
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
