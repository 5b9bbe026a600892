// benchgate compares fresh benchmark numbers against committed baselines
// and exits non-zero on regressions — the CI perf gates.
//
// Micro-benchmark mode (the tier-2 hot-path gate):
//
//	benchgate -base BENCH_hotpath.json -cur BENCH_hotpath.ci.json [-ns-tol 0.25]
//
// An entry regresses when its ns/op exceeds the baseline by more than
// -ns-tol (relative), or when its allocs/op exceeds the baseline at all
// (by more than one part in ten thousand, which only the million-allocation
// simulator suite entry can tell from "at all"): timing is noisy across
// runners, allocation counts are not. Benchmarks
// present only in the current run pass (new benchmarks need no baseline
// yet); baseline entries missing from the run fail the gate so renames
// cannot silently un-gate themselves.
//
// Scenario mode (the multi-policy comparison gate):
//
//	benchgate -scenarios -base BENCH_scenarios.json [-cur fresh.json] [-sc-tol 0.10]
//	benchgate -scenarios -write BENCH_scenarios.json
//
// The scenario suite replays every catalog scenario (internal/scenario)
// under every policy on the simulator's virtual clock — bit-deterministic,
// so -cur is optional: without it the suite regenerates in-process. The
// gate fails when DWS regresses against the committed baseline (p95,
// makespan, or ok-rate) or loses a previously decisive p95 win over
// another policy. -write regenerates and rewrites the baseline instead of
// gating.
//
// Federation mode (the shard-router spill-over gate):
//
//	benchgate -federation -base BENCH_federation.json
//	benchgate -federation -write BENCH_federation.json
//
// The federation suite replays the federated scenarios across 3 simulated
// shards under every spill policy (no-spill, random, next-preferred),
// also bit-deterministic. The gate fails when any policy's ok-rate drops
// more than two points against the baseline or when the spill-policy
// ranking inverts (spilling must keep beating not spilling on the storm).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"dws/internal/bench"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchgate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		basePath   = fs.String("base", "BENCH_hotpath.json", "committed baseline JSON")
		curPath    = fs.String("cur", "", "fresh run JSON (required for micro-bench mode; optional for -scenarios)")
		nsTol      = fs.Float64("ns-tol", 0.25, "relative ns/op tolerance (0.25 = +25%)")
		scenarios  = fs.Bool("scenarios", false, "gate the scenario comparison suite instead of micro-benchmarks")
		scTol      = fs.Float64("sc-tol", 0.10, "scenario mode: relative p95/makespan tolerance")
		federation = fs.Bool("federation", false, "gate the federated spill-over suite instead of micro-benchmarks")
		writePath  = fs.String("write", "", "scenario/federation mode: regenerate the suite and write it here instead of gating")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *federation {
		return runFederation(*basePath, *curPath, *writePath, stdout, stderr)
	}
	if *scenarios || *writePath != "" {
		return runScenarios(*basePath, *curPath, *writePath, *scTol, stdout, stderr)
	}
	return runMicro(*basePath, *curPath, *nsTol, fs, stdout, stderr)
}

func runMicro(basePath, curPath string, nsTol float64, fs *flag.FlagSet, stdout, stderr io.Writer) int {
	if curPath == "" {
		fmt.Fprintln(stderr, "benchgate: -cur is required")
		fs.Usage()
		return 2
	}
	base, err := bench.LoadBenchFile(basePath)
	if err != nil {
		fmt.Fprintf(stderr, "benchgate: %v\n", err)
		return 2
	}
	cur, err := bench.LoadBenchFile(curPath)
	if err != nil {
		fmt.Fprintf(stderr, "benchgate: %v\n", err)
		return 2
	}

	fmt.Fprintf(stdout, "benchgate: %s vs %s (ns/op tolerance %+.0f%%, allocs/op tolerance 0.01%%)\n\n",
		basePath, curPath, 100*nsTol)
	fmt.Fprint(stdout, bench.FormatComparison(base, cur, nsTol))

	regs, missing := bench.CompareBaseline(base, cur, nsTol)
	if len(regs) == 0 && len(missing) == 0 {
		fmt.Fprintf(stdout, "\nbenchgate: PASS (%d entries gated)\n", len(base.Entries))
		return 0
	}
	fmt.Fprintln(stdout)
	for _, r := range regs {
		fmt.Fprintf(stdout, "benchgate: FAIL %s\n", r)
	}
	for _, m := range missing {
		fmt.Fprintf(stdout, "benchgate: FAIL %s: missing from current run\n", m)
	}
	return 1
}

func runScenarios(basePath, curPath, writePath string, tol float64, stdout, stderr io.Writer) int {
	var cur *bench.ScenarioFile
	var err error
	if curPath != "" {
		cur, err = bench.LoadScenarioFile(curPath)
	} else {
		fmt.Fprintln(stdout, "benchgate: running scenario suite (virtual clock)...")
		cur, err = bench.RunScenarioSuite(nil)
	}
	if err != nil {
		fmt.Fprintf(stderr, "benchgate: %v\n", err)
		return 2
	}

	if writePath != "" {
		if err := bench.WriteScenarioFile(writePath, cur); err != nil {
			fmt.Fprintf(stderr, "benchgate: %v\n", err)
			return 2
		}
		fmt.Fprint(stdout, bench.FormatScenarios(cur))
		fmt.Fprintf(stdout, "benchgate: wrote %d results to %s\n", len(cur.Results), writePath)
		return 0
	}

	base, err := bench.LoadScenarioFile(basePath)
	if err != nil {
		fmt.Fprintf(stderr, "benchgate: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "benchgate: %s vs current suite (tolerance %+.0f%%)\n\n", basePath, 100*tol)
	fmt.Fprint(stdout, bench.FormatScenarios(cur))

	bad := bench.CompareScenarios(base, cur, tol)
	if len(bad) == 0 {
		fmt.Fprintf(stdout, "\nbenchgate: PASS (%d scenario results gated)\n", len(base.Results))
		return 0
	}
	fmt.Fprintln(stdout)
	for _, v := range bad {
		fmt.Fprintf(stdout, "benchgate: FAIL %s\n", v)
	}
	return 1
}

func runFederation(basePath, curPath, writePath string, stdout, stderr io.Writer) int {
	var cur *bench.FederationFile
	var err error
	if curPath != "" {
		cur, err = bench.LoadFederationFile(curPath)
	} else {
		fmt.Fprintln(stdout, "benchgate: running federation suite (virtual clock)...")
		cur, err = bench.RunFederationSuite(nil)
	}
	if err != nil {
		fmt.Fprintf(stderr, "benchgate: %v\n", err)
		return 2
	}

	if writePath != "" {
		if err := bench.WriteFederationFile(writePath, cur); err != nil {
			fmt.Fprintf(stderr, "benchgate: %v\n", err)
			return 2
		}
		fmt.Fprint(stdout, bench.FormatFederation(cur))
		fmt.Fprintf(stdout, "benchgate: wrote %d results to %s\n", len(cur.Results), writePath)
		return 0
	}

	base, err := bench.LoadFederationFile(basePath)
	if err != nil {
		fmt.Fprintf(stderr, "benchgate: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "benchgate: %s vs current suite\n\n", basePath)
	fmt.Fprint(stdout, bench.FormatFederation(cur))

	bad := bench.CompareFederation(base, cur)
	if len(bad) == 0 {
		fmt.Fprintf(stdout, "\nbenchgate: PASS (%d federation results gated)\n", len(base.Results))
		return 0
	}
	fmt.Fprintln(stdout)
	for _, v := range bad {
		fmt.Fprintf(stdout, "benchgate: FAIL %s\n", v)
	}
	return 1
}
