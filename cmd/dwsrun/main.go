// Command dwsrun co-runs real kernels on the live work-stealing runtime
// and reports per-run wall times and scheduler counters.
//
// Examples:
//
//	dwsrun -a FFT -b Mergesort -policy DWS -cores 8 -runs 3
//	dwsrun -a Heat -policy ABP           # solo
//	dwsrun -a FFT -b Mergesort -policy all   # the co-run under every policy, one table
//
// -a and -b take any name of the kernel catalog (internal/kernels): the
// eight Table 2 benchmarks and the synthetic shapes.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"dws/internal/bench"
	"dws/internal/kernels"
	"dws/internal/rt"
	"dws/internal/server"
	"dws/internal/task"
)

// jsonReport is the -json output: one record per run, in the job server's
// wire schema (internal/server), so CLI results and served-load results
// can be compared with the same tooling.
type jsonReport struct {
	Policy string             `json:"policy"`
	Cores  int                `json:"cores"`
	Runs   int                `json:"runs"`
	Size   float64            `json:"size"`
	Jobs   []server.JobResult `json:"jobs"`
}

func main() {
	var (
		aName  = flag.String("a", "FFT", "first kernel: "+strings.Join(kernels.Names(), "|"))
		bName  = flag.String("b", "", "second kernel (empty = run -a solo)")
		policy = flag.String("policy", "DWS", "ABP|EP|DWS|DWS-NC, or all: co-run -a and -b under each and print one table")
		cores  = flag.Int("cores", 8, "core slots (sets GOMAXPROCS)")
		runs   = flag.Int("runs", 3, "runs per program")
		size   = flag.Float64("size", 0.25, "input scale")
		record = flag.Bool("record", false, "record -a's fork-join structure into a task graph and print its metrics instead of running it")
		asJSON = flag.Bool("json", false, "emit machine-readable per-run results (the dwsd wire schema) instead of text")
	)
	flag.Parse()

	a, err := kernel(*aName)
	if err != nil {
		fatal(err)
	}

	if *record {
		g := rt.RecordGraph(a.Name, 0.5, a.NewTask(*size))
		if err := task.Validate(g); err != nil {
			fatal(err)
		}
		m := task.Analyze(g)
		fmt.Printf("recorded %s: %v\n", a.Name, m)
		return
	}

	if runtime.NumCPU() < 2 {
		fmt.Fprintln(os.Stderr,
			"dwsrun: note: single-CPU host — policy wall-clock differences are not meaningful; use dwssim -exp for the simulator figures")
	}

	ks := []kernels.Spec{a}
	if *bName != "" {
		b, err := kernel(*bName)
		if err != nil {
			fatal(err)
		}
		ks = append(ks, b)
	}

	if strings.EqualFold(*policy, "all") {
		if len(ks) != 2 {
			fatal(fmt.Errorf("-policy all compares the policies on a co-run: give -b"))
		}
		t, err := bench.LiveMixTable(*cores, *runs, *size, ks[0], ks[1])
		if err != nil {
			fatal(err)
		}
		write := t.Render
		if *asJSON {
			write = t.WriteJSON
		}
		if err := write(os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	pol, err := rt.ParsePolicy(*policy)
	if err != nil {
		fatal(err)
	}
	res, err := bench.RunLiveMix(pol, *cores, *runs, *size, ks...)
	if err != nil {
		fatal(err)
	}
	if *asJSON {
		rep := jsonReport{Policy: pol.String(), Cores: *cores, Runs: *runs, Size: *size}
		for _, lp := range res {
			for r, sec := range lp.RunSec {
				rep.Jobs = append(rep.Jobs, jobRecord(lp.Name, pol, *cores, *size, sec, lp.RunStats[r]))
			}
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fatal(err)
		}
		return
	}
	fmt.Printf("policy=%v cores=%d runs=%d\n", pol, *cores, *runs)
	for _, lp := range res {
		fmt.Printf("%-10s mean=%.3fs stats=%+v\n", lp.Name, lp.MeanSec, lp.Stats)
	}
}

// jobRecord shapes one CLI run like one served job (queue wait is zero —
// the CLI has no admission queue).
func jobRecord(name string, pol rt.Policy, cores int, size, sec float64, st rt.Stats) server.JobResult {
	runMS := sec * 1000
	return server.JobResult{
		Tenant:  name,
		Kernel:  name,
		Policy:  pol.String(),
		Cores:   cores,
		Size:    size,
		Status:  server.StatusOK,
		RunMS:   runMS,
		TotalMS: runMS,
		Stats:   st,
	}
}

// kernel looks name up in the catalog every live tier shares.
func kernel(name string) (kernels.Spec, error) {
	k, ok := kernels.ByName(name)
	if !ok {
		return kernels.Spec{}, fmt.Errorf("unknown kernel %q (have %s)", name, strings.Join(kernels.Names(), ", "))
	}
	return k, nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "dwsrun: %v\n", err)
	os.Exit(1)
}
