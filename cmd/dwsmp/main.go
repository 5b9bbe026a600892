//go:build linux || darwin

// Command dwsmp is the multi-process deployment of the paper's §3.4: m
// work-stealing programs, one OS process each, cooperating through one
// mmap-backed core allocation table.
//
// As a launcher it re-execs itself m times, SIGKILLs one worker mid-run,
// and reports per-program throughput plus how fast the survivors' lease
// sweepers freed the dead program's cores (-kill-index -1 co-runs without
// a crash):
//
//	dwsmp -cores 8 -programs 3 -kernel Mergesort -duration 10s -kill-index 1
//
// With -index it is ONE of those programs, launched by hand: it joins the
// -table file as program -index of -programs (the first process creates
// the file, later ones map it) and runs -kernel back to back for
// -duration, one JSON line per run. Its coordinator heartbeats a lease in
// the table and sweeps expired leases of co-runners, so a sibling that
// dies without releasing its cores (kill -9, OOM) is cleaned up after;
// SIGTERM/SIGINT exits cleanly.
//
//	dwsmp -table /tmp/dws.table -cores 8 -programs 3 -index 0 -kernel FFT &
//	dwsmp -table /tmp/dws.table -cores 8 -programs 3 -index 1 -kernel Mergesort &
//	dwsmp -table /tmp/dws.table -cores 8 -programs 3 -index 2 -kernel SOR &
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"dws/internal/coretable"
	"dws/internal/mproc"
)

func main() {
	// Worker mode: dwsmp spawned itself with the config in the
	// environment.
	if cfg, ok := mproc.ConfigFromEnv(); ok {
		if err := mproc.RunWorker(cfg); err != nil {
			log.Fatalf("dwsmp worker: %v", err)
		}
		return
	}

	var (
		cores     = flag.Int("cores", 8, "core slots k")
		programs  = flag.Int("programs", 3, "co-running worker processes m")
		kernel    = flag.String("kernel", "Mergesort", "catalog kernel every worker runs")
		size      = flag.Float64("size", 0.25, "kernel input scale")
		duration  = flag.Duration("duration", 10*time.Second, "experiment length")
		killIdx   = flag.Int("kill-index", 0, "worker to SIGKILL mid-run (-1 = none)")
		killAfter = flag.Duration("kill-after", 0, "when to kill (0 = duration/3)")
		period    = flag.Duration("period", 10*time.Millisecond, "coordinator period T")
		ttl       = flag.Duration("ttl", 0, "lease expiry (0 = 10×period)")
		tsleep    = flag.Int("tsleep", 0, "T_SLEEP (0 = cores)")
		tablePath = flag.String("table", "", "table file (default: fresh temp file)")
		index     = flag.Int("index", -1, "run as the one program in this slot of [0, programs) on -table instead of launching workers (-1 = launch)")
	)
	flag.Parse()
	worker := mproc.WorkerConfig{
		TablePath: *tablePath, Cores: *cores, Programs: *programs, Index: *index,
		Kernel: *kernel, Size: *size, Duration: *duration,
		CoordPeriod: *period, LeaseTTL: *ttl, TSleep: *tsleep,
	}
	if *index != -1 {
		if err := mproc.RunWorker(worker); err != nil {
			log.Fatalf("dwsmp: %v", err)
		}
		return
	}
	if *programs < 2 {
		log.Fatal("dwsmp: need -programs ≥ 2 (a victim and at least one survivor)")
	}
	if *killIdx >= *programs {
		log.Fatalf("dwsmp: -kill-index %d out of range for %d programs", *killIdx, *programs)
	}
	if *killAfter <= 0 {
		*killAfter = *duration / 3
	}
	if *ttl <= 0 {
		*ttl = 10 * *period
	}

	path := *tablePath
	if path == "" {
		dir, err := os.MkdirTemp("", "dwsmp-*")
		if err != nil {
			log.Fatal(err)
		}
		defer os.RemoveAll(dir)
		path = filepath.Join(dir, "core.table")
	}
	// The launcher is the first opener: it creates the table and observes
	// recovery through its own mapping (it never claims or sweeps).
	table, err := coretable.OpenFile(path, *cores)
	if err != nil {
		log.Fatal(err)
	}
	defer table.Close()

	exe, err := os.Executable()
	if err != nil {
		log.Fatal(err)
	}

	var (
		mu      sync.Mutex
		records = make([][]mproc.IterRecord, *programs)
	)
	cmds := make([]*exec.Cmd, *programs)
	var scanWG sync.WaitGroup
	for i := 0; i < *programs; i++ {
		cfg := worker
		cfg.TablePath, cfg.Index, cfg.LeaseTTL = path, i, *ttl
		cfg.Duration = *duration + time.Minute // the launcher ends the run
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(), cfg.Env()...)
		cmd.Stderr = os.Stderr
		out, err := cmd.StdoutPipe()
		if err != nil {
			log.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			log.Fatal(err)
		}
		cmds[i] = cmd
		scanWG.Add(1)
		go func(i int) {
			defer scanWG.Done()
			sc := bufio.NewScanner(out)
			for sc.Scan() {
				var rec mproc.IterRecord
				if json.Unmarshal(sc.Bytes(), &rec) == nil {
					mu.Lock()
					records[i] = append(records[i], rec)
					mu.Unlock()
				}
			}
		}(i)
	}
	fmt.Printf("dwsmp: %d workers on %d cores, kernel %s size %v, table %s\n",
		*programs, *cores, *kernel, *size, path)

	// Phase 1: co-run, then kill.
	var killTime time.Time
	var recovery time.Duration
	heldAtKill := -1
	if *killIdx >= 0 {
		time.Sleep(*killAfter)
		victim := int32(*killIdx + 1)
		// Kill at a moment the victim demonstrably holds cores, so the
		// crash actually strands an allocation for the survivors to
		// recover (between kernel runs a program may briefly hold none).
		waitHeld := time.Now().Add(*duration)
		for table.CountOccupiedBy(victim) == 0 && time.Now().Before(waitHeld) {
			time.Sleep(time.Millisecond)
		}
		heldAtKill = table.CountOccupiedBy(victim)
		if err := cmds[*killIdx].Process.Kill(); err != nil {
			log.Fatalf("dwsmp: kill worker %d: %v", *killIdx, err)
		}
		killTime = time.Now()
		fmt.Printf("dwsmp: SIGKILLed worker %d at t=%v holding %d cores\n",
			*killIdx, killAfter.Round(time.Millisecond), heldAtKill)
		// Recovery latency: from the kill until no core is occupied by the
		// dead program (survivors swept its lease and freed them).
		for table.CountOccupiedBy(victim) > 0 {
			if time.Since(killTime) > *duration {
				log.Fatalf("dwsmp: cores of dead worker %d not recovered within %v — recovery failed",
					*killIdx, *duration)
			}
			time.Sleep(time.Millisecond)
		}
		recovery = time.Since(killTime)
		fmt.Printf("dwsmp: recovered all %d cores of worker %d in %v (ttl %v, period %v)\n",
			heldAtKill, *killIdx, recovery.Round(time.Millisecond), *ttl, *period)
		_, _ = cmds[*killIdx].Process.Wait()
	}

	// Phase 2: let survivors use the recovered cores, then stop them.
	rest := time.Until(killTime.Add(*duration - *killAfter))
	if *killIdx < 0 {
		rest = *duration
	}
	if rest > 0 {
		time.Sleep(rest)
	}
	for i, cmd := range cmds {
		if i == *killIdx {
			continue
		}
		_ = cmd.Process.Signal(syscall.SIGTERM)
	}
	for i, cmd := range cmds {
		if i == *killIdx {
			continue
		}
		if err := cmd.Wait(); err != nil {
			log.Printf("dwsmp: worker %d: %v", i, err)
		}
	}
	scanWG.Wait()

	// Report: per-program throughput before/after the kill, recovery
	// counters from the survivors' last records.
	fmt.Printf("\n%-8s %8s %12s %12s %12s %12s\n",
		"worker", "iters", "before it/s", "after it/s", "dead_sweeps", "recovered")
	for i := 0; i < *programs; i++ {
		recs := records[i]
		label := fmt.Sprintf("w%d", i)
		if i == *killIdx {
			label += " ✗"
		}
		if len(recs) == 0 {
			fmt.Printf("%-8s %8d\n", label, 0)
			continue
		}
		var before, after int
		for _, r := range recs {
			if killTime.IsZero() || time.UnixMilli(r.UnixMS).Before(killTime) {
				before++
			} else {
				after++
			}
		}
		span := func(n int, d time.Duration) float64 {
			if d <= 0 {
				return 0
			}
			return float64(n) / d.Seconds()
		}
		beforeDur := *killAfter
		afterDur := *duration - *killAfter
		if killTime.IsZero() {
			beforeDur = *duration
			afterDur = 0
		}
		last := recs[len(recs)-1]
		fmt.Printf("%-8s %8d %12.2f %12.2f %12d %12d\n",
			label, len(recs), span(before, beforeDur), span(after, afterDur),
			last.DeadSweeps, last.CoresRecovered)
	}
	if *killIdx >= 0 {
		fmt.Printf("\nrecovery: %d cores freed in %v after SIGKILL — no leak, survivors kept serving\n",
			heldAtKill, recovery.Round(time.Millisecond))
	}
	fmt.Printf("final table: %s\n", table)
}
