package scenario

import (
	"fmt"
	"path/filepath"
	"sort"
)

// The committed catalog: named, seeded scenario Specs the benchmark suite
// replays under every policy. Durations are 2 virtual seconds — long
// enough for coordinator periods (10ms) and arbiter periods (5ms) to play
// out hundreds of times, short enough that a full policy sweep regenerates
// in seconds.
//
// Capacity context for the default 16-core machine: one core-second is
// 1e6 µs of work, so the machine serves ≈16M work-µs per second. Total
// job work at kernel scale s is roughly 4.1M·s µs for FFT, 3.1M·s for
// PNN, 2.5M·s for Mergesort (see internal/workload); the per-tenant rates
// below are chosen so the steady scenarios run at ~40–60% load and the
// storm pushes past 100%.

// Catalog returns the named scenarios, in display order. Each call builds
// fresh Specs, so callers may mutate them freely.
func Catalog() []Spec {
	const second = 1_000_000 // trace µs
	return []Spec{
		{
			// The control: identical tenants, evenly spaced identical jobs.
			// Every policy should look samey here; it anchors the ranking
			// divergence the bursty/heavy-tailed scenarios demonstrate.
			Name: "steady-uniform", Seed: 101, DurationUS: 2 * second,
			Tenants: []TenantSpec{
				{Name: "alpha", Kernel: "p-1", Arrival: Arrival{Kind: ArriveUniform, RateHz: 18}, Size: Size{Kind: SizeFixed, Mean: 0.02}},
				{Name: "beta", Kernel: "p-8", Arrival: Arrival{Kind: ArriveUniform, RateHz: 18}, Size: Size{Kind: SizeFixed, Mean: 0.05}},
				{Name: "gamma", Kernel: "p-5", Arrival: Arrival{Kind: ArriveUniform, RateHz: 18}, Size: Size{Kind: SizeFixed, Mean: 0.03}},
			},
		},
		{
			// Independent Poisson streams over a mixed kernel set with
			// mildly dispersed lognormal sizes and loose deadlines — the
			// "ordinary day" scenario.
			Name: "poisson-mix", Seed: 202, DurationUS: 2 * second,
			Tenants: []TenantSpec{
				{Name: "fft", Kernel: "p-1", Arrival: Arrival{Kind: ArrivePoisson, RateHz: 15}, Size: Size{Kind: SizeLognormal, Mean: 0.02, Sigma: 0.4}, DeadlineUS: 250_000},
				{Name: "sort", Kernel: "p-8", Arrival: Arrival{Kind: ArrivePoisson, RateHz: 15}, Size: Size{Kind: SizeLognormal, Mean: 0.05, Sigma: 0.4}, DeadlineUS: 250_000},
				{Name: "chol", Kernel: "p-3", Arrival: Arrival{Kind: ArrivePoisson, RateHz: 8}, Size: Size{Kind: SizeLognormal, Mean: 0.02, Sigma: 0.4}, DeadlineUS: 250_000},
				{Name: "heat", Kernel: "p-6", Arrival: Arrival{Kind: ArrivePoisson, RateHz: 5}, Size: Size{Kind: SizeLognormal, Mean: 0.015, Sigma: 0.4}, DeadlineUS: 250_000},
			},
		},
		{
			// The tail-latency stressor: arrivals cluster in bursts and
			// sizes are heavy-tailed (Pareto α=1.5), so instantaneous
			// demand swings violently — the regime demand-aware allocation
			// is built for, and where time-sharing's interference and
			// static partitioning's stranded cores both show up in p99.
			Name: "bursty-pareto", Seed: 303, DurationUS: 2 * second,
			Tenants: []TenantSpec{
				{Name: "spiky", Kernel: "s-1", Arrival: Arrival{Kind: ArriveBursty, RateHz: 16, BurstFactor: 6, BurstFrac: 0.12}, Size: Size{Kind: SizePareto, Mean: 0.012, Alpha: 1.5, Max: 0.12}, DeadlineUS: 400_000},
				{Name: "jumpy", Kernel: "p-1", Arrival: Arrival{Kind: ArriveBursty, RateHz: 12, BurstFactor: 6, BurstFrac: 0.12}, Size: Size{Kind: SizePareto, Mean: 0.015, Alpha: 1.5, Max: 0.15}, DeadlineUS: 400_000},
				{Name: "calm", Kernel: "p-8", Arrival: Arrival{Kind: ArrivePoisson, RateHz: 10}, Size: Size{Kind: SizeFixed, Mean: 0.04}, DeadlineUS: 400_000},
			},
		},
		{
			// Offset sinusoidal load waves: tenants peak at different
			// times, so the machine is always partially idle under static
			// splits while elastic policies follow the waves.
			Name: "diurnal-waves", Seed: 404, DurationUS: 2 * second,
			Tenants: []TenantSpec{
				{Name: "east", Kernel: "p-2", Arrival: Arrival{Kind: ArriveDiurnal, RateHz: 14, Phases: 2}, Size: Size{Kind: SizeLognormal, Mean: 0.02, Sigma: 0.3}},
				{Name: "west", Kernel: "p-5", Arrival: Arrival{Kind: ArriveDiurnal, RateHz: 14, Phases: 3}, Size: Size{Kind: SizeLognormal, Mean: 0.025, Sigma: 0.3}},
				{Name: "apac", Kernel: "p-7", Arrival: Arrival{Kind: ArriveDiurnal, RateHz: 10, Phases: 4}, Size: Size{Kind: SizeFixed, Mean: 0.012}},
			},
		},
		{
			// Tenant churn: a stable pair plus a mid-trace joiner and an
			// early leaver — exercises elastic reallocation on join/leave
			// (and the live server's tenant lifecycle).
			Name: "tenant-churn", Seed: 505, DurationUS: 2 * second,
			Tenants: []TenantSpec{
				{Name: "resident1", Kernel: "p-1", Arrival: Arrival{Kind: ArrivePoisson, RateHz: 14}, Size: Size{Kind: SizeFixed, Mean: 0.02}},
				{Name: "resident2", Kernel: "p-8", Arrival: Arrival{Kind: ArrivePoisson, RateHz: 14}, Size: Size{Kind: SizeFixed, Mean: 0.05}},
				{Name: "daytripper", Kernel: "p-3", Arrival: Arrival{Kind: ArrivePoisson, RateHz: 18}, Size: Size{Kind: SizeFixed, Mean: 0.025}, JoinUS: 500_000, LeaveUS: 1_500_000},
				{Name: "latecomer", Kernel: "s-3", Arrival: Arrival{Kind: ArrivePoisson, RateHz: 10}, Size: Size{Kind: SizeFixed, Mean: 0.04}, JoinUS: 1_200_000},
			},
		},
		{
			// QoS: a weight-4 gold tenant with tight deadlines against
			// heavyweight batch neighbours — the arbiter (DWS) should hold
			// the gold tenant's tail where unweighted policies can't.
			Name: "gold-qos", Seed: 606, DurationUS: 2 * second,
			Tenants: []TenantSpec{
				{Name: "gold", Kernel: "p-8", Arrival: Arrival{Kind: ArrivePoisson, RateHz: 25}, Size: Size{Kind: SizeFixed, Mean: 0.03}, DeadlineUS: 120_000, Weight: 4},
				{Name: "batch1", Kernel: "p-6", Arrival: Arrival{Kind: ArrivePoisson, RateHz: 6}, Size: Size{Kind: SizeLognormal, Mean: 0.03, Sigma: 0.5}},
				{Name: "batch2", Kernel: "p-4", Arrival: Arrival{Kind: ArrivePoisson, RateHz: 6}, Size: Size{Kind: SizeLognormal, Mean: 0.03, Sigma: 0.5}},
			},
		},
		{
			// Past saturation: offered load ≈1.5× capacity with tight
			// queues — measures admission (429s), deadline casualties, and
			// how gracefully each policy degrades.
			Name: "overload-storm", Seed: 707, DurationUS: 2 * second,
			Tenants: []TenantSpec{
				{Name: "storm1", Kernel: "p-1", Arrival: Arrival{Kind: ArrivePoisson, RateHz: 30}, Size: Size{Kind: SizePareto, Mean: 0.03, Alpha: 1.8, Max: 0.2}, DeadlineUS: 300_000},
				{Name: "storm2", Kernel: "p-5", Arrival: Arrival{Kind: ArrivePoisson, RateHz: 30}, Size: Size{Kind: SizePareto, Mean: 0.03, Alpha: 1.8, Max: 0.2}, DeadlineUS: 300_000},
				{Name: "storm3", Kernel: "p-2", Arrival: Arrival{Kind: ArrivePoisson, RateHz: 30}, Size: Size{Kind: SizePareto, Mean: 0.03, Alpha: 1.8, Max: 0.2}, DeadlineUS: 300_000},
			},
		},
	}
}

// CatalogNames lists the catalog scenario names in display order.
func CatalogNames() []string {
	specs := Catalog()
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	return names
}

// SpecByName returns the named catalog Spec.
func SpecByName(name string) (Spec, error) {
	for _, s := range Catalog() {
		if s.Name == name {
			return s, nil
		}
	}
	sorted := CatalogNames()
	sort.Strings(sorted)
	return Spec{}, fmt.Errorf("scenario: unknown scenario %q (have %v)", name, sorted)
}

// CompileByName compiles the named catalog scenario.
func CompileByName(name string) (*Trace, error) {
	s, err := SpecByName(name)
	if err != nil {
		return nil, err
	}
	return s.Compile()
}

// Load resolves what a -scenario flag names: a trace file when the
// argument has a file extension (only .jsonl loads), else the catalog
// scenario of that name, compiled. A non-zero seed replaces the catalog
// scenario's own; a trace file is already compiled, so seed does not
// apply to it.
func Load(nameOrFile string, seed int64) (*Trace, error) {
	if filepath.Ext(nameOrFile) != "" {
		return LoadFile(nameOrFile)
	}
	s, err := SpecByName(nameOrFile)
	if err != nil {
		return nil, err
	}
	if seed != 0 {
		s.Seed = seed
	}
	return s.Compile()
}
