package main

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dws/internal/kernels"
)

// usage is a snapshot of what the process has consumed so far.
type usage struct {
	cpuUS   float64 // user + system CPU, µs
	mallocs uint64
	gcs     uint32
	pauseNS uint64
	heapSys uint64
}

func readUsage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec)*1e6 + float64(t.Usec) }
	return usage{
		cpuUS:   tv(ru.Utime) + tv(ru.Stime),
		mallocs: ms.Mallocs, gcs: ms.NumGC, pauseNS: ms.PauseTotalNs, heapSys: ms.HeapSys,
	}
}

// peakRSSMB is VmHWM, the process's resident-set high-water mark.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// calibrate times the sequential FFT of the corun-mix job size (n = 16 384)
// and returns the median of a few repetitions in ms. It is the host-speed
// witness: sampled before and after every workload, it tells a host that
// drifted under the run from a program that got slower. It collects garbage
// first, so that it times the host and not the collector working through
// what the workload left behind.
func calibrate() float64 {
	const reps = 31
	runtime.GC()
	src := kernels.RandComplex(1<<14, 7)
	buf := make([]complex128, len(src))
	ms := make([]float64, reps)
	for i := range ms {
		copy(buf, src)
		t := time.Now()
		kernels.FFTSeq(buf)
		ms[i] = float64(time.Since(t)) / 1e6
	}
	return median(ms)
}

// unsteadyShare is how far the two calibration samples of a workload may
// differ before the workload is printed as unsteady.
const unsteadyShare = 0.10

func unsteady(calibStart, calibEnd float64) bool {
	lo, hi := calibStart, calibEnd
	if lo > hi {
		lo, hi = hi, lo
	}
	return lo > 0 && (hi-lo)/lo > unsteadyShare
}

// hostStamp labels a result file with where it came from.
type hostStamp struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Time       string `json:"time"`
}

func stampHost() hostStamp {
	return hostStamp{
		Commit: commit(), GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Time: time.Now().UTC().Format(time.RFC3339),
	}
}

// commit is the VCS revision the binary was built from, or what git says of
// the working directory, or "unknown" (a checkout without git).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown"
}
