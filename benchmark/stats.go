package main

import (
	"sort"

	"dws/internal/stats"
)

// tailPercentile is the percentile the `latency_p99_ms` family reports for a
// sample of n: the highest of 99, 95, 90, 75 that still has at least ten
// samples beyond it, and the median when none has (fewer than 40 samples —
// the five-odd sweeps of `sim-sweep`). A p99 read off fewer samples is one
// or two outliers, not a percentile.
func tailPercentile(n int) float64 {
	for _, p := range []float64{99, 95, 90, 75} {
		if float64(n)*(100-p)/100 >= 10 {
			return p
		}
	}
	return 50
}

// tail returns the tailPercentile-th percentile of xs.
func tail(xs []float64) float64 { return stats.Percentile(xs, tailPercentile(len(xs))) }

func median(xs []float64) float64 { return stats.Percentile(xs, 50) }

// windowCounts buckets completion offsets (ns since the measured interval
// began) into whole windows of windowNS and drops everything at or beyond
// the last whole window of the interval: the partial last window holds the
// requests that were in flight when the clients were told to stop, and its
// count says nothing about the rate.
func windowCounts(endsNS []int64, intervalNS, windowNS int64) []float64 {
	n := int(intervalNS / windowNS)
	counts := make([]float64, n)
	for _, e := range endsNS {
		if w := int(e / windowNS); e >= 0 && w < n {
			counts[w]++
		}
	}
	return counts
}

// quartiles returns q1, median, q3 of xs.
func quartiles(xs []float64) (q1, med, q3 float64) {
	return stats.Percentile(xs, 25), stats.Percentile(xs, 50), stats.Percentile(xs, 75)
}

// ratio is a/b, and 0 when b is 0 (a per-job cost on a run with no jobs).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
