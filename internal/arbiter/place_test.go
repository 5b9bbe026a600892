package arbiter

import (
	"math/rand"
	"testing"

	"dws/internal/topo"
)

// freeModel is an independent (deliberately naive) model of the free-core
// state used to verify Place's guarantees without reusing its run
// bookkeeping: a plain bool array plus brute-force run scans.
type freeModel struct {
	t    *topo.Topology
	free []bool
}

func newFreeModel(t *topo.Topology) *freeModel {
	f := &freeModel{t: t, free: make([]bool, t.K())}
	for i := range f.free {
		f.free[i] = true
	}
	return f
}

// runLengths returns the lengths of all maximal free runs (consecutive
// indices within one socket), unsorted.
func (f *freeModel) runLengths() []int {
	var out []int
	n := 0
	for c := 0; c < len(f.free); c++ {
		brk := !f.free[c] || (c > 0 && f.t.SocketOf(c) != f.t.SocketOf(c-1))
		if brk && n > 0 {
			out = append(out, n)
			n = 0
		}
		if f.free[c] {
			n++
		}
	}
	if n > 0 {
		out = append(out, n)
	}
	return out
}

// fitsWhole reports whether any free run can hold `need` cores whole.
func (f *freeModel) fitsWhole(need int) bool {
	for _, n := range f.runLengths() {
		if n >= need {
			return true
		}
	}
	return false
}

// minFragments is the fewest pieces `need` cores can be covered with
// given the current free runs: greedily count the largest runs.
func (f *freeModel) minFragments(need int) int {
	lens := f.runLengths()
	for i := range lens { // selection sort, descending — it's a test
		for j := i + 1; j < len(lens); j++ {
			if lens[j] > lens[i] {
				lens[i], lens[j] = lens[j], lens[i]
			}
		}
	}
	pieces := 0
	for _, n := range lens {
		if need <= 0 {
			break
		}
		pieces++
		need -= n
	}
	return pieces
}

func (f *freeModel) claim(t *testing.T, cores []int) {
	t.Helper()
	for _, c := range cores {
		if c < 0 || c >= len(f.free) {
			t.Fatalf("placed core %d out of range [0,%d)", c, len(f.free))
		}
		if !f.free[c] {
			t.Fatalf("core %d placed twice", c)
		}
		f.free[c] = false
	}
}

// fragments counts the maximal runs of consecutive same-socket indices
// in an ascending core list.
func fragments(t *topo.Topology, cores []int) int {
	n := 0
	for i, c := range cores {
		if i == 0 || cores[i-1] != c-1 || t.SocketOf(cores[i-1]) != t.SocketOf(c) {
			n++
		}
	}
	return n
}

func sockets(t *topo.Topology, cores []int) map[int]bool {
	m := map[int]bool{}
	for _, c := range cores {
		m[t.SocketOf(c)] = true
	}
	return m
}

// TestPlaceProperties drives Place over random (k, weights, socketSize)
// tuples and checks, against an independent free-state model, the three
// contract clauses: a program that fits a free run never straddles,
// torn programs split into the provably minimal number of fragments,
// and every vector places disjointly and completely.
func TestPlaceProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 500; trial++ {
		k := 2 + rng.Intn(31)         // 2..32 cores
		m := 1 + rng.Intn(6)          // 1..6 programs
		socketSize := 1 + rng.Intn(k) // 1..k (k => flat)
		scores := make([]float64, m)
		floors := make([]int32, m)
		for i := range scores {
			scores[i] = float64(1 + rng.Intn(8))
		}
		ents := Apportion(k, scores, floors)
		tp := topo.Uniform(k, socketSize)
		placed := Place(tp, ents)

		model := newFreeModel(tp)
		for p, e := range ents {
			need := int(e)
			cores := placed[p]
			if len(cores) != need {
				t.Fatalf("trial %d (k=%d sock=%d ents=%v): prog %d got %d cores, want %d",
					trial, k, socketSize, ents, p, len(cores), need)
			}
			for i := 1; i < len(cores); i++ {
				if cores[i] <= cores[i-1] {
					t.Fatalf("trial %d: prog %d block not ascending: %v", trial, p, cores)
				}
			}
			if need == 0 {
				continue
			}
			couldFit := model.fitsWhole(need)
			wantFrags := model.minFragments(need)
			model.claim(t, cores)
			if couldFit && len(sockets(tp, cores)) > 1 {
				t.Fatalf("trial %d (k=%d sock=%d ents=%v): prog %d fits one socket but straddles: %v",
					trial, k, socketSize, ents, p, cores)
			}
			if got := fragments(tp, cores); got != wantFrags {
				t.Fatalf("trial %d (k=%d sock=%d ents=%v): prog %d split into %d fragments, minimum is %d: %v",
					trial, k, socketSize, ents, p, got, wantFrags, cores)
			}
		}
	}
}

// TestPlaceFlatIsPrefixSum pins the degeneracy anchor: under a flat
// topology Place must reproduce the contiguous prefix-sum split that
// coretable.EntitledBlock describes, bit for bit, for any size vector.
func TestPlaceFlatIsPrefixSum(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		k := 1 + rng.Intn(32)
		m := 1 + rng.Intn(6)
		scores := make([]float64, m)
		for i := range scores {
			scores[i] = float64(1 + rng.Intn(8))
		}
		ents := Apportion(k, scores, make([]int32, m))
		placed := Place(topo.Flat(k), ents)
		start := 0
		for p, e := range ents {
			for i := 0; i < int(e); i++ {
				if placed[p][i] != start+i {
					t.Fatalf("trial %d (k=%d ents=%v): prog %d = %v, want prefix block at %d",
						trial, k, ents, p, placed[p], start)
				}
			}
			start += int(e)
		}
	}
}

// TestPlaceEqualWeightsDegenerate pins the equal-weight story: with
// equal weights the sizes are the paper's static ⌊k/m⌋(+1) split, and
// whenever that split aligns with socket boundaries (or the topology is
// flat) placement is exactly the current contiguous HomeCores layout.
func TestPlaceEqualWeightsDegenerate(t *testing.T) {
	cases := []struct{ k, m, socketSize int }{
		{16, 4, 8}, // sizes 4,4,4,4 — two programs per socket, aligned
		{16, 2, 8}, // sizes 8,8 — one program per socket
		{12, 3, 4}, // sizes 4,4,4 — aligned
		{8, 4, 0},  // flat
		{7, 3, 0},  // flat with remainder sizes 3,2,2
	}
	for _, c := range cases {
		scores := make([]float64, c.m)
		for i := range scores {
			scores[i] = 1
		}
		ents := Apportion(c.k, scores, make([]int32, c.m))
		placed := Place(topo.Uniform(c.k, c.socketSize), ents)
		start := 0
		for p, e := range ents {
			for i := 0; i < int(e); i++ {
				if placed[p][i] != start+i {
					t.Fatalf("k=%d m=%d sock=%d ents=%v: prog %d = %v, want contiguous at %d",
						c.k, c.m, c.socketSize, ents, p, placed[p], start)
				}
			}
			start += int(e)
		}
	}
}

// TestPlaceTearExample pins the worked example the fault-injection test
// and DESIGN.md both lean on: k=6, sockets of 2, sizes (3,2,1). The
// flat split is [0,1,2][3,4][5]; placement tears program 0 across two
// sockets (unavoidable), then program 1 jumps to the whole free socket
// [4,5] and program 2 backfills [3] — so programs 1 and 2 land on
// different cores than the flat split.
func TestPlaceTearExample(t *testing.T) {
	tp := topo.Uniform(6, 2)
	placed := Place(tp, []int32{3, 2, 1})
	want := [][]int{{0, 1, 2}, {4, 5}, {3}}
	for p := range want {
		if len(placed[p]) != len(want[p]) {
			t.Fatalf("prog %d = %v, want %v", p, placed[p], want[p])
		}
		for i := range want[p] {
			if placed[p][i] != want[p][i] {
				t.Fatalf("prog %d = %v, want %v", p, placed[p], want[p])
			}
		}
	}
}

// TestPlaceOvercommitClamps: a size vector that exceeds the machine (a
// racy snapshot mid-publish) must clamp, not panic, and never double-
// place a core.
func TestPlaceOvercommitClamps(t *testing.T) {
	tp := topo.Uniform(4, 2)
	placed := Place(tp, []int32{3, 3})
	model := newFreeModel(tp)
	model.claim(t, placed[0])
	model.claim(t, placed[1])
	if len(placed[0]) != 3 || len(placed[1]) != 1 {
		t.Fatalf("overcommit placed %v / %v, want 3 + 1 cores", placed[0], placed[1])
	}
}

func TestPlacedFor(t *testing.T) {
	tp := topo.Uniform(6, 2)
	ents := []int32{3, 2, 1}
	if got := PlacedFor(tp, ents, 1); len(got) != 2 || got[0] != 4 || got[1] != 5 {
		t.Fatalf("PlacedFor(1) = %v, want [4 5]", got)
	}
	if got := PlacedFor(tp, ents, 9); got != nil {
		t.Fatalf("PlacedFor(out of range) = %v, want nil", got)
	}
}
