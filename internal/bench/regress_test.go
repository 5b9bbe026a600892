package bench

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func baseFixture() *BenchFile {
	return &BenchFile{
		GoVersion: "go1.22",
		Entries: []BenchEntry{
			{Name: "kernels/fft", NsPerOp: 1000, AllocsPerOp: 10, BytesPerOp: 800},
			{Name: "deque/push-pop", NsPerOp: 40, AllocsPerOp: 0},
			{Name: "kernels/old-only", NsPerOp: 5, AllocsPerOp: 0},
		},
	}
}

func TestCompareBaselineClean(t *testing.T) {
	base := baseFixture()
	cur := &BenchFile{Entries: []BenchEntry{
		// Faster and fewer allocs: fine. 20% slower deque: inside 25% tol.
		{Name: "kernels/fft", NsPerOp: 900, AllocsPerOp: 8},
		{Name: "deque/push-pop", NsPerOp: 48, AllocsPerOp: 0},
		{Name: "kernels/old-only", NsPerOp: 5, AllocsPerOp: 0},
		{Name: "kernels/brand-new", NsPerOp: 999999, AllocsPerOp: 999}, // ungated
	}}
	regs, missing := CompareBaseline(base, cur, 0.25)
	if len(regs) != 0 {
		t.Fatalf("regs = %v, want none", regs)
	}
	if len(missing) != 0 {
		t.Fatalf("missing = %v, want none", missing)
	}
}

// TestCompareBaselineAllocsSlack: the allocation rule is "any increase"
// until counts reach the tens of thousands; a whole simulated suite may
// wobble by one part in ten thousand and no more.
func TestCompareBaselineAllocsSlack(t *testing.T) {
	base := &BenchFile{Entries: []BenchEntry{
		{Name: "sim/scenario-suite", NsPerOp: 1, AllocsPerOp: 1_300_000},
		{Name: "sim/runopen", NsPerOp: 1, AllocsPerOp: 3_643},
	}}
	within := &BenchFile{Entries: []BenchEntry{
		{Name: "sim/scenario-suite", NsPerOp: 1, AllocsPerOp: 1_300_130},
		{Name: "sim/runopen", NsPerOp: 1, AllocsPerOp: 3_643},
	}}
	if regs, _ := CompareBaseline(base, within, 0.25); len(regs) != 0 {
		t.Fatalf("regs = %v, want none: 130 in 1.3 M is inside the slack", regs)
	}
	beyond := &BenchFile{Entries: []BenchEntry{
		{Name: "sim/scenario-suite", NsPerOp: 1, AllocsPerOp: 1_300_131},
		{Name: "sim/runopen", NsPerOp: 1, AllocsPerOp: 3_644},
	}}
	if regs, _ := CompareBaseline(base, beyond, 0.25); len(regs) != 2 {
		t.Fatalf("regs = %v, want both entries: one past the slack, one past \"at all\"", regs)
	}
}

func TestCompareBaselineCatchesRegressions(t *testing.T) {
	base := baseFixture()
	cur := &BenchFile{Entries: []BenchEntry{
		// 50% slower: ns/op regression.
		{Name: "kernels/fft", NsPerOp: 1500, AllocsPerOp: 10},
		// Any allocs/op increase regresses, even with faster ns/op.
		{Name: "deque/push-pop", NsPerOp: 30, AllocsPerOp: 1},
		// Deleted benchmark must be reported, not silently un-gated.
	}}
	regs, missing := CompareBaseline(base, cur, 0.25)
	if len(regs) != 2 {
		t.Fatalf("regs = %v, want 2", regs)
	}
	if regs[0].Name != "deque/push-pop" || regs[0].Metric != "allocs/op" {
		t.Errorf("regs[0] = %v, want deque/push-pop allocs/op", regs[0])
	}
	if regs[1].Name != "kernels/fft" || regs[1].Metric != "ns/op" {
		t.Errorf("regs[1] = %v, want kernels/fft ns/op", regs[1])
	}
	if d := regs[1].Delta(); d < 0.49 || d > 0.51 {
		t.Errorf("fft Delta = %v, want ≈ 0.50", d)
	}
	if len(missing) != 1 || missing[0] != "kernels/old-only" {
		t.Errorf("missing = %v, want [kernels/old-only]", missing)
	}
}

func TestCompareBaselineBoundary(t *testing.T) {
	base := &BenchFile{Entries: []BenchEntry{{Name: "x", NsPerOp: 100, AllocsPerOp: 2}}}
	// Exactly at tolerance: not a regression (strict >).
	cur := &BenchFile{Entries: []BenchEntry{{Name: "x", NsPerOp: 125, AllocsPerOp: 2}}}
	if regs, _ := CompareBaseline(base, cur, 0.25); len(regs) != 0 {
		t.Fatalf("at-tolerance regs = %v, want none", regs)
	}
	cur.Entries[0].NsPerOp = 125.1
	if regs, _ := CompareBaseline(base, cur, 0.25); len(regs) != 1 {
		t.Fatal("just-past-tolerance run not flagged")
	}
}

func TestBenchFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	base := baseFixture()
	if err := WriteBenchFile(path, base); err != nil {
		t.Fatalf("WriteBenchFile: %v", err)
	}
	got, err := LoadBenchFile(path)
	if err != nil {
		t.Fatalf("LoadBenchFile: %v", err)
	}
	if len(got.Entries) != len(base.Entries) || !reflect.DeepEqual(got.Entries[0], base.Entries[0]) {
		t.Fatalf("round-trip mismatch: %+v", got)
	}
}

func TestFormatComparison(t *testing.T) {
	base := baseFixture()
	cur := &BenchFile{Entries: []BenchEntry{
		{Name: "kernels/fft", NsPerOp: 1500, AllocsPerOp: 10},
		{Name: "deque/push-pop", NsPerOp: 30, AllocsPerOp: 1},
	}}
	out := FormatComparison(base, cur, 0.25)
	if !strings.Contains(out, "REGRESSION") {
		t.Errorf("table lacks regression marker:\n%s", out)
	}
	if !strings.Contains(out, "MISSING") {
		t.Errorf("table lacks missing marker:\n%s", out)
	}
}
