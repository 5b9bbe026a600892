//go:build linux || darwin

// Package mproc runs one paper-style work-stealing program as a
// standalone OS process: it joins a named, mmap-backed core allocation
// table file (coretable.OpenFile) as program Index of Programs and runs a
// catalog kernel back to back until its time budget expires — the
// deployment model of §3.4, where independently launched processes
// cooperate purely through the shared table.
//
// The same entry point backs cmd/dwsmp — `-index` runs one hand-launched
// program from flags, and the launcher re-execs itself as its workers
// through the environment — and the crash-recovery test
// (the test binary re-execs itself as a worker it can SIGKILL). A worker
// emits one JSON IterRecord line per kernel run so launchers can compute
// per-program throughput and watch recovery counters move.
package mproc

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"dws/internal/coretable"
	"dws/internal/kernels"
	"dws/internal/rt"
)

// WorkerConfig describes one worker process.
type WorkerConfig struct {
	// TablePath is the shared core-allocation-table file. The first
	// process to open it creates and sizes it.
	TablePath string
	// Cores is k; every co-running process must agree on it.
	Cores int
	// Programs is m, the number of co-running processes; with Index it
	// fixes this program's table ID (Index+1) and home core block.
	Programs int
	// Index is this program's 0-based slot among the m processes.
	Index int
	// Kernel is a catalog name (FFT, Mergesort, ...); Size its input
	// scale (≤0 uses 0.25).
	Kernel string
	Size   float64
	// Duration bounds the run; the worker exits cleanly (releasing its
	// cores and lease) when it elapses. ≤0 defaults to 10s.
	Duration time.Duration
	// CoordPeriod and LeaseTTL tune the coordinator and crash recovery
	// (≤0 uses the rt defaults).
	CoordPeriod time.Duration
	LeaseTTL    time.Duration
	// TSleep is the paper's T_SLEEP (≤0 defaults to Cores).
	TSleep int
	// Out receives one JSON IterRecord per kernel run (nil = os.Stdout).
	Out io.Writer
}

// IterRecord is one line of worker output: one completed kernel run plus
// the program's live recovery counters.
type IterRecord struct {
	Index  int     `json:"index"`
	Iter   int     `json:"iter"`
	UnixMS int64   `json:"unix_ms"`
	RunMS  float64 `json:"run_ms"`
	// CoresHeld is the program's core-table share right after the run.
	CoresHeld int `json:"cores_held"`
	// DeadSweeps / CoresRecovered are this program's cumulative crash-
	// recovery counters (dead co-runner leases swept, cores freed).
	DeadSweeps     int64 `json:"dead_sweeps"`
	CoresRecovered int64 `json:"cores_recovered"`
}

// RunWorker joins the table and runs the kernel until the duration
// elapses or SIGTERM/SIGINT arrives, then leaves cleanly (cores released,
// lease dropped). A SIGKILLed worker does neither — that is the crash the
// lease sweeper recovers from.
func RunWorker(cfg WorkerConfig) error {
	if cfg.TablePath == "" {
		return errors.New("mproc: TablePath is required")
	}
	if cfg.Index < 0 || cfg.Programs <= 0 || cfg.Index >= cfg.Programs {
		return fmt.Errorf("mproc: index %d out of range for %d programs", cfg.Index, cfg.Programs)
	}
	spec, ok := kernels.ByName(cfg.Kernel)
	if !ok {
		return fmt.Errorf("mproc: unknown kernel %q (have %v)", cfg.Kernel, kernels.Names())
	}
	if cfg.Size <= 0 {
		cfg.Size = 0.25
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 10 * time.Second
	}
	if cfg.Out == nil {
		cfg.Out = os.Stdout
	}
	runtime.GOMAXPROCS(cfg.Cores)

	table, err := coretable.OpenFile(cfg.TablePath, cfg.Cores)
	if err != nil {
		return err
	}
	defer table.Close()

	sys, err := rt.NewSystem(rt.Config{
		Cores:       cfg.Cores,
		Programs:    cfg.Programs,
		Policy:      rt.DWS,
		TSleep:      cfg.TSleep,
		CoordPeriod: cfg.CoordPeriod,
		LeaseTTL:    cfg.LeaseTTL,
		Table:       table,
	})
	if err != nil {
		return err
	}
	defer sys.Close()

	prog, err := sys.NewProgramAt(fmt.Sprintf("w%d", cfg.Index), cfg.Index)
	if err != nil {
		return err
	}

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	defer signal.Stop(sigCh)

	enc := json.NewEncoder(cfg.Out)
	pid := int32(cfg.Index + 1)
	deadline := time.Now().Add(cfg.Duration)
	for iter := 0; time.Now().Before(deadline); iter++ {
		select {
		case <-sigCh:
			return nil // clean exit: deferred Close releases and leaves
		default:
		}
		start := time.Now()
		if err := prog.Run(spec.NewTask(cfg.Size)); err != nil {
			return err
		}
		st := prog.Stats()
		rec := IterRecord{
			Index:          cfg.Index,
			Iter:           iter,
			UnixMS:         time.Now().UnixMilli(),
			RunMS:          float64(time.Since(start)) / float64(time.Millisecond),
			CoresHeld:      table.CountOccupiedBy(pid),
			DeadSweeps:     st.DeadSweeps,
			CoresRecovered: st.CoresRecovered,
		}
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	return nil
}

// Environment round-trip: launchers (cmd/dwsmp, the crash test) re-exec a
// binary as a worker by exporting the config and detecting it on entry.

const envPrefix = "DWS_MPROC_"

// Env renders the config as environment variables for a child process.
func (cfg WorkerConfig) Env() []string {
	return []string{
		envPrefix + "TABLE=" + cfg.TablePath,
		envPrefix + "CORES=" + strconv.Itoa(cfg.Cores),
		envPrefix + "PROGRAMS=" + strconv.Itoa(cfg.Programs),
		envPrefix + "INDEX=" + strconv.Itoa(cfg.Index),
		envPrefix + "KERNEL=" + cfg.Kernel,
		envPrefix + "SIZE=" + strconv.FormatFloat(cfg.Size, 'g', -1, 64),
		envPrefix + "DURATION_MS=" + strconv.FormatInt(cfg.Duration.Milliseconds(), 10),
		envPrefix + "PERIOD_MS=" + strconv.FormatInt(cfg.CoordPeriod.Milliseconds(), 10),
		envPrefix + "TTL_MS=" + strconv.FormatInt(cfg.LeaseTTL.Milliseconds(), 10),
		envPrefix + "TSLEEP=" + strconv.Itoa(cfg.TSleep),
	}
}

// ConfigFromEnv reconstructs a WorkerConfig exported by Env. The second
// result is false when the process was not launched as a worker.
func ConfigFromEnv() (WorkerConfig, bool) {
	table := os.Getenv(envPrefix + "TABLE")
	if table == "" {
		return WorkerConfig{}, false
	}
	atoi := func(key string) int {
		n, _ := strconv.Atoi(os.Getenv(envPrefix + key))
		return n
	}
	size, _ := strconv.ParseFloat(os.Getenv(envPrefix+"SIZE"), 64)
	return WorkerConfig{
		TablePath:   table,
		Cores:       atoi("CORES"),
		Programs:    atoi("PROGRAMS"),
		Index:       atoi("INDEX"),
		Kernel:      os.Getenv(envPrefix + "KERNEL"),
		Size:        size,
		Duration:    time.Duration(atoi("DURATION_MS")) * time.Millisecond,
		CoordPeriod: time.Duration(atoi("PERIOD_MS")) * time.Millisecond,
		LeaseTTL:    time.Duration(atoi("TTL_MS")) * time.Millisecond,
		TSleep:      atoi("TSLEEP"),
	}, true
}
