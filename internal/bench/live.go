package bench

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"dws/internal/kernels"
	"dws/internal/rt"
)

// LiveProgram is one program's share of a live co-run.
type LiveProgram struct {
	Name    string
	MeanSec float64
	// Stats is the program's cumulative scheduler counters after its last
	// run.
	Stats rt.Stats
	// RunSec and RunStats record each individual run: wall time and the
	// counter deltas over that run (machine-readable output shares one
	// schema with the job server's results).
	RunSec   []float64
	RunStats []rt.Stats
}

// RunLiveMix co-runs the given catalog kernels, one program each, at input
// scale size on the live runtime under pol, each repeated runs times (the
// Fig. 3 methodology on real work; one kernel is a solo run). GOMAXPROCS
// is set to cores for the duration and restored afterwards.
func RunLiveMix(pol rt.Policy, cores, runs int, size float64, ks ...kernels.Spec) ([]LiveProgram, error) {
	prev := runtime.GOMAXPROCS(cores)
	defer runtime.GOMAXPROCS(prev)

	sys, err := rt.NewSystem(rt.Config{Cores: cores, Programs: len(ks), Policy: pol})
	if err != nil {
		return nil, err
	}
	defer sys.Close()

	res := make([]LiveProgram, len(ks))
	errs := make([]error, len(ks))
	var wg sync.WaitGroup
	for i, k := range ks {
		p, err := sys.NewProgram(k.Name)
		if err != nil {
			return nil, err
		}
		wg.Add(1)
		go func(i int, k kernels.Spec, p *rt.Program) {
			defer wg.Done()
			lp := &res[i]
			lp.Name = k.Name
			var total time.Duration
			for r := 0; r < runs; r++ {
				task := k.NewTask(size)
				before := p.Stats()
				start := time.Now()
				if errs[i] = p.Run(task); errs[i] != nil {
					return
				}
				dur := time.Since(start)
				total += dur
				lp.RunSec = append(lp.RunSec, dur.Seconds())
				lp.RunStats = append(lp.RunStats, p.Stats().Sub(before))
			}
			lp.MeanSec = total.Seconds() / float64(runs)
			lp.Stats = p.Stats()
		}(i, k, p)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}

// LiveMixTable runs one live mix under every policy and renders the
// comparison.
func LiveMixTable(cores, runs int, size float64, a, b kernels.Spec) (*Table, error) {
	t := &Table{
		Title: fmt.Sprintf("live runtime: %s + %s co-running on %d slots (%d runs each)",
			a.Name, b.Name, cores, runs),
		Header: []string{"policy", a.Name + " (s)", b.Name + " (s)",
			"sleeps", "wakes", "claims", "reclaims"},
	}
	if runtime.NumCPU() < 2 {
		t.Notes = append(t.Notes,
			"this host has one CPU: wall-clock differences between policies are not meaningful here; use the simulator figures")
	}
	for _, pol := range []rt.Policy{rt.ABP, rt.EP, rt.DWS, rt.DWSNC} {
		r, err := RunLiveMix(pol, cores, runs, size, a, b)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			pol.String(),
			fmt.Sprintf("%.3f", r[0].MeanSec),
			fmt.Sprintf("%.3f", r[1].MeanSec),
			fmt.Sprintf("%d", r[0].Stats.Sleeps+r[1].Stats.Sleeps),
			fmt.Sprintf("%d", r[0].Stats.Wakes+r[1].Stats.Wakes),
			fmt.Sprintf("%d", r[0].Stats.Claims+r[1].Stats.Claims),
			fmt.Sprintf("%d", r[0].Stats.Reclaims+r[1].Stats.Reclaims),
		})
	}
	return t, nil
}
