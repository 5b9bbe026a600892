// Command benchmark is the repository's end-to-end benchmark: it builds the
// real serving stack (router → dwsd → rt → kernels) in one process over
// loopback TCP, drives it from two closed-loop clients, checks every
// answer, and prints each metric as `name value unit`. See README.md in
// this directory for the workloads, the metrics and how they interact.
//
//	go run ./benchmark -seed 1                 # every workload, tracing off
//	go run ./benchmark -seed 1 -trace 1        # … and the traced pass + ladder
//	go run ./benchmark -workload corun-mix     # one workload, in this process
//	go run ./benchmark -check-repeat           # the battery twice, compared
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

const (
	declPath = "BENCHMARK.json"
	outDir   = "benchmark/out" // the only place the command writes
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// baselines is the directory sim-sweep loads BENCH_scenarios.json and
	// BENCH_federation.json from.
	baselines string
}

// result is what one run of one workload measured.
type result struct {
	values    map[string]float64
	notes     map[string]string
	attempted int
	failed    int
	// latencyP50MS is the untraced half's latency_p50_ms on a traced run,
	// kept for server.http_floor_us.
	latencyP50MS float64
}

func newResult() *result {
	return &result{values: map[string]float64{}, notes: map[string]string{}}
}

func (r *result) set(name string, v float64, note string) {
	r.values[name] = v
	r.notes[name] = note
}

// setWitnesses records what surrounds every workload's measurement: the two
// host calibration samples, and on traced runs the Go runtime's own
// counters over the untraced interval.
func (r *result) setWitnesses(calibStart, calibEnd float64, traced bool, u0, u1 usage) {
	note := ""
	if unsteady(calibStart, calibEnd) {
		note = "unsteady: the host's speed moved by more than a tenth during this workload"
	}
	r.set("host.calib_start_ms", calibStart, "")
	r.set("host.calib_end_ms", calibEnd, note)
	if traced {
		r.set("go.gc_cycles", float64(u1.gcs-u0.gcs), "")
		r.set("go.gc_pause_ms_total", float64(u1.pauseNS-u0.pauseNS)/1e6, "")
		r.set("go.heap_peak_mb", float64(u1.heapSys)/(1<<20), "HeapSys")
	}
}

// fail records one operation or check that broke the protocol.
func (r *result) fail(format string, args ...any) {
	r.failed++
	if r.failed <= 20 {
		fmt.Fprintf(os.Stderr, "benchmark: FAILED: "+format+"\n", args...)
	}
}

func main() {
	var opt options
	trace := 0
	checkRepeat := false
	flag.StringVar(&opt.workload, "workload", "", "run one workload in this process (default: all, each in a child process)")
	flag.Int64Var(&opt.seed, "seed", 1, "seed for tenant names, size sequences and think-time jitter")
	flag.Float64Var(&opt.seconds, "seconds", 0, "measured seconds per run (default: run_seconds of BENCHMARK.json)")
	flag.IntVar(&trace, "trace", 0, "1: the traced pass and the ladder (per-layer metrics) instead of the end-to-end metrics")
	flag.StringVar(&opt.baselines, "baselines", ".", "directory holding BENCH_scenarios.json and BENCH_federation.json for sim-sweep's output check")
	flag.BoolVar(&checkRepeat, "check-repeat", false, "run the untraced battery twice (seed, seed+1) and compare against the bounds")
	flag.Parse()
	opt.trace = trace != 0

	if err := run(opt, checkRepeat); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(opt options, checkRepeat bool) error {
	decl, err := loadDecl(declPath)
	if err != nil {
		return err
	}
	if opt.seconds <= 0 {
		opt.seconds = float64(decl.RunSeconds)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	switch {
	case checkRepeat:
		return runCheckRepeat(decl, opt)
	case opt.workload == "":
		return runAll(decl, opt)
	}
	return runOne(decl, opt)
}

// runOne runs one workload in this process and prints its metrics: every
// measured one as a `name value unit` line, and as the last line the JSON
// object the driver reads.
func runOne(decl *declFile, opt options) error {
	if !decl.hasWorkload(opt.workload) {
		return fmt.Errorf("unknown workload %q (BENCHMARK.json declares %s)", opt.workload, strings.Join(decl.workloadNames(), ", "))
	}
	var res *result
	var err error
	if w := liveByName(opt.workload); w != nil {
		res, err = runLive(w, opt)
		if err == nil && opt.trace {
			for _, name := range simOnlyMetrics {
				res.set(name, 0, "sim-sweep only")
			}
		}
	} else {
		res, err = runSimSweep(opt)
	}
	if err != nil {
		return err
	}
	want := decl.EndToEnd
	if opt.trace {
		want = decl.PerLayer
		if err := runLadder(res); err != nil {
			return err
		}
		floor, note := 0.0, "null-direct only"
		if opt.workload == "null-direct" {
			floor = res.latencyP50MS*1e3 - res.values["server.handler_us_per_job"]
			note = "latency_p50_ms − server.handler_us_per_job: net/http, loopback and the client"
		}
		res.set("server.http_floor_us", floor, note)
	}

	for _, problem := range checkDeclared(decl, want, res.values) {
		res.fail("%s", problem)
	}
	out := driverLine{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]driverMetric{}}
	fmt.Printf("# workload %s seed %d seconds %g trace %v\n", opt.workload, opt.seed, opt.seconds, opt.trace)
	for _, name := range sortedKeys(res.values) {
		unit := decl.unitOf(name)
		line := fmt.Sprintf("%s %s %s", name, strconv.FormatFloat(res.values[name], 'g', -1, 64), unit)
		if note := res.notes[name]; note != "" {
			line += "  # " + note
		}
		fmt.Println(line)
	}
	for _, m := range want {
		out.Metrics[m.Name] = driverMetric{Value: res.values[m.Name], Unit: m.Unit}
	}
	last, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(last))
	if res.failed > 0 {
		return fmt.Errorf("%s: %d of %d operations and checks failed", opt.workload, res.failed, res.attempted)
	}
	return nil
}

// driverLine is the last line of a single-workload run.
type driverLine struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]driverMetric `json:"metrics"`
}

type driverMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// childRun is what the parent keeps of one child process: every printed
// metric and the driver line's ledger.
type childRun struct {
	Metrics   map[string]float64 `json:"metrics"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Unsteady  bool               `json:"unsteady,omitempty"`
}

// runChild runs one workload in a fresh child process of this binary, so
// that one workload's heap and RSS peaks do not bleed into the next, shows
// its output, and parses it.
func runChild(opt options) (*childRun, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if opt.trace {
		trace = "1"
	}
	cmd := exec.Command(exe, "-workload", opt.workload, "-seed", strconv.FormatInt(opt.seed, 10),
		"-seconds", strconv.FormatFloat(opt.seconds, 'g', -1, 64), "-trace", trace, "-baselines", opt.baselines)
	cmd.Stderr = os.Stderr
	stdout, runErr := cmd.Output()
	os.Stdout.Write(stdout)
	cr, err := parseChild(string(stdout))
	if err != nil {
		return nil, errors.Join(runErr, fmt.Errorf("%s: %w", opt.workload, err))
	}
	return cr, nil // a child that failed its checks still reports; the caller sees Failed
}

// parseChild reads a single-workload run's output back: the metric lines
// and the final JSON line.
func parseChild(stdout string) (*childRun, error) {
	cr := &childRun{Metrics: map[string]float64{}}
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	var last driverLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		return nil, fmt.Errorf("no result line: %w", err)
	}
	cr.Attempted, cr.Failed = last.Attempted, last.Failed
	for _, line := range lines[:len(lines)-1] {
		f := strings.Fields(line)
		if len(f) < 3 || f[0] == "#" {
			continue
		}
		v, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			continue
		}
		cr.Metrics[f[0]] = v
	}
	cr.Unsteady = unsteady(cr.Metrics["host.calib_start_ms"], cr.Metrics["host.calib_end_ms"])
	return cr, nil
}

// resultsFile is benchmark/out/results.json.
type resultsFile struct {
	Host      hostStamp                       `json:"host"`
	Seed      int64                           `json:"seed"`
	Seconds   float64                         `json:"seconds"`
	Untraced  map[string]*childRun            `json:"end_to_end"`
	Traced    map[string]*childRun            `json:"per_layer,omitempty"`
	Workloads []string                        `json:"workloads"`
	Repeat    map[string]map[string][]float64 `json:"check_repeat,omitempty"`
}

// battery runs every declared workload once, each in its own child.
func battery(decl *declFile, opt options) (map[string]*childRun, error) {
	out := map[string]*childRun{}
	for _, name := range decl.workloadNames() {
		o := opt
		o.workload = name
		cr, err := runChild(o)
		if err != nil {
			return nil, err
		}
		out[name] = cr
	}
	return out, nil
}

func (rf *resultsFile) write() error {
	data, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, "results.json"), append(data, '\n'), 0o644)
}

func newResultsFile(decl *declFile, opt options) *resultsFile {
	return &resultsFile{Host: stampHost(), Seed: opt.seed, Seconds: opt.seconds, Workloads: decl.workloadNames()}
}

func failures(runs ...map[string]*childRun) error {
	failed := 0
	for _, pass := range runs {
		for _, cr := range pass {
			failed += cr.Failed
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d operations and checks failed", failed)
	}
	return nil
}

// runAll is the one command: the untraced battery, then with -trace 1 the
// traced battery, and results.json with the host stamp.
func runAll(decl *declFile, opt options) error {
	rf := newResultsFile(decl, opt)
	untraced := opt
	untraced.trace = false
	var err error
	if rf.Untraced, err = battery(decl, untraced); err != nil {
		return err
	}
	if opt.trace {
		if rf.Traced, err = battery(decl, opt); err != nil {
			return err
		}
	}
	if err := rf.write(); err != nil {
		return err
	}
	for _, name := range rf.Workloads {
		if rf.Untraced[name].Unsteady {
			fmt.Printf("# %s: unsteady (host calibration moved by more than %.0f %%)\n", name, 100*unsteadyShare)
		}
	}
	fmt.Printf("# wrote %s\n", filepath.Join(outDir, "results.json"))
	return failures(rf.Untraced, rf.Traced)
}

// runCheckRepeat runs the untraced battery twice on the same build, with
// seed and seed+1, and holds every (workload, end-to-end metric) pair to the
// metric's own bound.
func runCheckRepeat(decl *declFile, opt options) error {
	opt.trace = false
	rf := newResultsFile(decl, opt)
	first, err := battery(decl, opt)
	if err != nil {
		return err
	}
	second := opt
	second.seed++
	again, err := battery(decl, second)
	if err != nil {
		return err
	}
	rf.Untraced = first
	rf.Repeat = map[string]map[string][]float64{}
	over := 0
	fmt.Printf("%-14s %-16s %14s %14s %9s %7s\n", "workload", "metric", "seed "+strconv.FormatInt(opt.seed, 10),
		"seed "+strconv.FormatInt(second.seed, 10), "rel.diff", "bound")
	for _, w := range rf.Workloads {
		rf.Repeat[w] = map[string][]float64{}
		for _, m := range decl.EndToEnd {
			a, b := first[w].Metrics[m.Name], again[w].Metrics[m.Name]
			diff := relDiff(a, b)
			rf.Repeat[w][m.Name] = []float64{a, b, diff}
			mark := ""
			if diff > *m.Bound {
				mark = "  OVER"
				over++
			}
			fmt.Printf("%-14s %-16s %14.6g %14.6g %9.4f %7.2f%s\n", w, m.Name, a, b, diff, *m.Bound, mark)
		}
	}
	if err := rf.write(); err != nil {
		return err
	}
	if err := failures(first, again); err != nil {
		return err
	}
	if over > 0 {
		return fmt.Errorf("%d (workload, metric) pairs differ by more than their bound", over)
	}
	return nil
}

// relDiff is |a−b| as a share of the first value.
func relDiff(a, b float64) float64 {
	d := a - b
	if d < 0 {
		d = -d
	}
	return ratio(d, a)
}
