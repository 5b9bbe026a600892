package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"time"

	"dws/internal/bench"
	"dws/internal/scenario"
	"dws/internal/sim"
)

// The committed baselines the gated sweeps are compared with, looked up in
// the -baselines directory (the repository root unless told otherwise).
const (
	scenarioBaseline   = "BENCH_scenarios.json"
	federationBaseline = "BENCH_federation.json"
)

// liveOnlyMetrics are the per-layer metrics only a live workload measures;
// sim-sweep reports them as 0, and the live workloads report simOnlyMetrics
// as 0. (The ladder's metrics are measured on every traced run.)
var liveOnlyMetrics = []string{
	"spill_latency_p50_ms", "refusal_p50_ms",
	"router.self_hop0_us", "router.self_hop1_us", "router.refused_hop_us", "router.spills_per_spilled_job",
	"server.span_p50_us", "server.self_p50_us", "server.queue_ms_p50", "server.refuse_span_p50_us",
	"server.refusal_p99_ms", "server.early_reject_share", "server.expired_share", "server.metrics_scrape_ms",
	"rt.run_ms_p50.hog", "rt.run_ms_p50.bursty", "rt.run_ms_p99.bursty",
	"rt.steals_per_job", "rt.failed_steals_per_job", "rt.steal_success_ratio", "rt.sleeps_per_job",
	"rt.wakes_per_job", "rt.claims_per_job", "rt.reclaims_per_job", "rt.evictions_per_job",
	"loadgen.lag_p99_us", "loadgen.client_self_us",
	"trace.overhead_share", "trace.accounted_share", "trace.accounted_share_hop1",
}

var simOnlyMetrics = []string{
	"sim_sweep_s", "sim.scenario_suite_s", "sim.federation_suite_s",
	"sim.suite_s.DWS", "sim.suite_s.ABP", "sim.suite_s.EP", "sim.suite_s.DWS-NC", "sim.suite_s.GO",
}

// simSetupReps is how many times sim-sweep sets up (milliseconds each);
// setup_s is the median.
const simSetupReps = 5

// sweep is one pass over both gated suites.
type sweep struct {
	scenarioS, federationS float64
	jobs                   int    // simulated jobs replayed
	runs                   int    // simulations run
	digest                 []byte // both result files, marshalled
	sc                     *bench.ScenarioFile
	fed                    *bench.FederationFile
}

// runSweep does what `benchgate -scenarios` and `benchgate -federation`
// regenerate: every catalog scenario under every policy, then the
// federated scenarios under every spill policy, on the virtual clock.
func runSweep() (*sweep, error) {
	t0 := time.Now()
	sc, err := bench.RunScenarioSuite(nil)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	fed, err := bench.RunFederationSuite(nil)
	if err != nil {
		return nil, err
	}
	t2 := time.Now()
	s := &sweep{scenarioS: t1.Sub(t0).Seconds(), federationS: t2.Sub(t1).Seconds(), sc: sc, fed: fed}
	for _, r := range append(append([]*scenario.Result{}, sc.Results...), fed.Results...) {
		s.jobs += r.Sent
		s.runs++
	}
	if s.digest, err = json.Marshal([]any{sc, fed}); err != nil {
		return nil, err
	}
	return s, nil
}

// runSimSweep measures the simulator: whole gated sweeps, back to back,
// single-threaded, until opt.seconds have passed (half of it when traced,
// followed by one per-policy timed pass). The sweep replays the committed
// catalog, whose specs carry their own seeds, so -seed changes nothing
// here; that is what makes the result comparable with the baselines.
func runSimSweep(opt options) (*result, error) {
	res := newResult()
	calibStart := calibrate()

	// Set-up: what a sweep needs before its first event — the catalog
	// compiled and the baselines loaded.
	var setups []float64
	var baseSc *bench.ScenarioFile
	var baseFed *bench.FederationFile
	for i := 0; i < simSetupReps; i++ {
		t := time.Now()
		for _, spec := range scenario.Catalog() {
			if _, err := spec.Compile(); err != nil {
				return nil, err
			}
		}
		var err error
		if baseSc, err = bench.LoadScenarioFile(filepath.Join(opt.baselines, scenarioBaseline)); err != nil {
			return nil, err
		}
		if baseFed, err = bench.LoadFederationFile(filepath.Join(opt.baselines, federationBaseline)); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
	}

	budget := time.Duration(opt.seconds * float64(time.Second))
	if opt.trace {
		budget /= 2
	}
	var sweeps []*sweep
	u0 := readUsage()
	for start := time.Now(); time.Since(start) < budget; {
		s, err := runSweep()
		if err != nil {
			return nil, err
		}
		sweeps = append(sweeps, s)
	}
	u1 := readUsage()
	peakMB := peakRSSMB()

	// Output checks: the simulator is deterministic, so every sweep must
	// reproduce the first, and the first must pass the gates against the
	// committed baselines with no tolerance.
	var sweepS, scS, fedS, jobsPerS []float64
	jobs := 0
	for i, s := range sweeps {
		res.attempted += s.runs
		if !bytes.Equal(s.digest, sweeps[0].digest) {
			res.fail("sweep %d produced different results from sweep 0", i)
		}
		total := s.scenarioS + s.federationS
		sweepS, scS, fedS = append(sweepS, total), append(scS, s.scenarioS), append(fedS, s.federationS)
		jobsPerS = append(jobsPerS, float64(s.jobs)/total)
		jobs += s.jobs
	}
	for _, v := range bench.CompareScenarios(baseSc, sweeps[0].sc, 0) {
		res.fail("%s: %s", scenarioBaseline, v)
	}
	for _, v := range bench.CompareFederation(baseFed, sweeps[0].fed) {
		res.fail("%s: %s", federationBaseline, v)
	}

	res.setWitnesses(calibStart, calibrate(), opt.trace, u0, u1)

	if !opt.trace {
		n := fmt.Sprintf("%d sweeps", len(sweeps))
		res.set("setup_s", median(setups), fmt.Sprintf("median of %d set-ups", len(setups)))
		res.set("jobs_per_s", median(jobsPerS), "simulated jobs per second of wall time, median of "+n)
		res.set("latency_p50_ms", median(sweepS)*1e3, "one sweep, median of "+n)
		res.set("cpu_us_per_job", ratio(u1.cpuUS-u0.cpuUS, float64(jobs)), "per simulated job")
		res.set("allocs_per_job", ratio(float64(u1.mallocs-u0.mallocs), float64(jobs)), "per simulated job")
		res.set("peak_rss_mb", peakMB, "")
		return res, nil
	}

	res.set("sim_sweep_s", median(sweepS), fmt.Sprintf("median of %d sweeps", len(sweeps)))
	res.set("latency_p99_ms", tail(sweepS)*1e3, fmt.Sprintf("one sweep, p%g of %d", tailPercentile(len(sweepS)), len(sweeps)))
	res.set("sim.scenario_suite_s", median(scS), "")
	res.set("sim.federation_suite_s", median(fedS), "")
	res.set("failed_share", ratio(float64(res.failed), float64(res.attempted)), "")
	for _, name := range liveOnlyMetrics {
		res.set(name, 0, "live workloads only")
	}

	// The scenario suite again, one policy at a time, to say which policy's
	// simulation the suite's time goes to.
	for _, pol := range bench.ScenarioPolicies {
		var total time.Duration
		for _, spec := range scenario.Catalog() {
			tr, err := spec.Compile()
			if err != nil {
				return nil, err
			}
			cfg := sim.DefaultConfig()
			cfg.Policy = pol
			adm := &sim.AdmissionOpts{GlobalCap: len(tr.Tenants()) * 8, EarlyReject: true}
			t := time.Now()
			if _, err := scenario.RunSim(tr, scenario.SimOptions{Config: cfg, Admission: adm}); err != nil {
				return nil, err
			}
			total += time.Since(t)
		}
		res.set("sim.suite_s."+pol.String(), total.Seconds(), "")
	}
	return res, nil
}
