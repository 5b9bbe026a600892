// Benchmark baseline comparison — the benchstat-style regression gate
// behind the tier-2 CI bench job. The committed BENCH_hotpath.json is the
// reference; a fresh run on the same runner class is compared entry by
// entry, and the gate fails on ns/op drift beyond a tolerance or on any
// allocs/op increase (allocation counts are deterministic, so zero
// tolerance is the right default for them).
package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// BenchEntry is one benchmark's headline numbers in the stable, diffable
// shape the committed baselines use. NsPerOp is the primary trend metric;
// AllocsPerOp and BytesPerOp come from the -benchmem counters.
type BenchEntry struct {
	Name        string  `json:"name"`
	Iters       int     `json:"iters"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	// Extra carries custom b.ReportMetric series (e.g. the contended-steal
	// benchmark's dups/op). Informational only: the gate compares ns/op
	// and allocs/op, never Extra, because custom metrics may be
	// legitimately nondeterministic (a duplicate-pop rate depends on race
	// timing).
	Extra map[string]float64 `json:"extra,omitempty"`
}

// BenchFile is a committed benchmark baseline (BENCH_*.json).
type BenchFile struct {
	GoVersion string       `json:"go_version"`
	GOOS      string       `json:"goos"`
	GOARCH    string       `json:"goarch"`
	NumCPU    int          `json:"num_cpu"`
	Entries   []BenchEntry `json:"entries"`
}

// loadJSON reads one of the committed baseline files.
func loadJSON[T any](path string) (*T, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f T
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("bench: parse %s: %w", path, err)
	}
	return &f, nil
}

// writeJSON writes a baseline with the canonical indentation the
// committed files use.
func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadBenchFile reads a baseline from disk.
func LoadBenchFile(path string) (*BenchFile, error) { return loadJSON[BenchFile](path) }

// WriteBenchFile writes a baseline in the committed form.
func WriteBenchFile(path string, f *BenchFile) error { return writeJSON(path, f) }

// Regression is one gate violation: a metric of a benchmark moved past
// its tolerance relative to the baseline.
type Regression struct {
	Name   string  // benchmark name
	Metric string  // "ns/op" or "allocs/op"
	Base   float64 // baseline value
	Cur    float64 // current value
}

// Delta returns the relative change, +0.30 meaning 30% slower.
func (r Regression) Delta() float64 {
	if r.Base == 0 {
		return 0
	}
	return r.Cur/r.Base - 1
}

func (r Regression) String() string {
	return fmt.Sprintf("%s: %s %.6g → %.6g (%+.1f%%)",
		r.Name, r.Metric, r.Base, r.Cur, 100*r.Delta())
}

// allocsSlack is how far allocs/op may exceed the baseline: one part in
// ten thousand, which for every entry below 10 000 allocs/op still means
// "at all". The whole-suite simulator entry allocates some 95 thousand
// times per op, and a handful of those depend on map hash seeds and on how
// many goroutines the host fans the replays out to.
const allocsSlack = 1e-4

// CompareBaseline checks cur against base: an entry regresses if its
// ns/op exceeds base·(1+nsTol) or its allocs/op exceeds the baseline by
// more than allocsSlack (for all but the largest entries: at all). Entries only present in cur are new benchmarks and pass; entries
// only present in base are reported as missing (a renamed or deleted
// benchmark silently un-gates itself otherwise). Both lists come back
// sorted by name.
func CompareBaseline(base, cur *BenchFile, nsTol float64) (regs []Regression, missing []string) {
	curByName := make(map[string]BenchEntry, len(cur.Entries))
	for _, e := range cur.Entries {
		curByName[e.Name] = e
	}
	for _, b := range base.Entries {
		c, ok := curByName[b.Name]
		if !ok {
			missing = append(missing, b.Name)
			continue
		}
		if b.NsPerOp > 0 && c.NsPerOp > b.NsPerOp*(1+nsTol) {
			regs = append(regs, Regression{Name: b.Name, Metric: "ns/op",
				Base: b.NsPerOp, Cur: c.NsPerOp})
		}
		if float64(c.AllocsPerOp) > float64(b.AllocsPerOp)*(1+allocsSlack) {
			regs = append(regs, Regression{Name: b.Name, Metric: "allocs/op",
				Base: float64(b.AllocsPerOp), Cur: float64(c.AllocsPerOp)})
		}
	}
	sort.Slice(regs, func(i, j int) bool {
		if regs[i].Name != regs[j].Name {
			return regs[i].Name < regs[j].Name
		}
		return regs[i].Metric < regs[j].Metric
	})
	sort.Strings(missing)
	return regs, missing
}

// FormatComparison renders a benchstat-like side-by-side table of every
// baseline entry with its current numbers and deltas, flagging gate
// violations with a trailing marker.
func FormatComparison(base, cur *BenchFile, nsTol float64) string {
	regs, _ := CompareBaseline(base, cur, nsTol)
	bad := make(map[string]bool, len(regs))
	for _, r := range regs {
		bad[r.Name+"\x00"+r.Metric] = true
	}
	curByName := make(map[string]BenchEntry, len(cur.Entries))
	for _, e := range cur.Entries {
		curByName[e.Name] = e
	}

	var b strings.Builder
	fmt.Fprintf(&b, "%-36s %14s %14s %8s %10s %10s %7s\n",
		"name", "base ns/op", "cur ns/op", "Δns", "base a/op", "cur a/op", "Δallocs")
	for _, e := range base.Entries {
		c, ok := curByName[e.Name]
		if !ok {
			fmt.Fprintf(&b, "%-36s %14.1f %14s\n", e.Name, e.NsPerOp, "MISSING")
			continue
		}
		nsDelta := 0.0
		if e.NsPerOp > 0 {
			nsDelta = 100 * (c.NsPerOp/e.NsPerOp - 1)
		}
		mark := ""
		if bad[e.Name+"\x00ns/op"] || bad[e.Name+"\x00allocs/op"] {
			mark = "  << REGRESSION"
		}
		fmt.Fprintf(&b, "%-36s %14.1f %14.1f %+7.1f%% %10d %10d %+7d%s\n",
			e.Name, e.NsPerOp, c.NsPerOp, nsDelta,
			e.AllocsPerOp, c.AllocsPerOp, c.AllocsPerOp-e.AllocsPerOp, mark)
	}
	return b.String()
}
