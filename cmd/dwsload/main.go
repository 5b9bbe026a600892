// Command dwsload is an open-loop load generator for dwsd, built on the
// scenario engine (internal/scenario): every mode compiles or loads a
// trace and replays it with the live runner, so ad-hoc load, catalog
// scenarios, and recorded traces all share one execution path and one
// report.
//
// Ad-hoc mode generates per-tenant Poisson (or uniform) arrivals from the
// classic flags, deterministically in -seed:
//
//	dwsd -cores 8 -policy DWS &
//	dwsload -rate 20 -duration 15s -tenants alice=FFT,bob=Mergesort -size 0.1 -seed 7
//
// -scenario drives a committed catalog scenario or a recorded .jsonl trace
// file, the same lookup dwssim -scenario uses:
//
//	dwsload -scenario bursty-pareto -timescale 1.0
//	dwsload -scenario trace.jsonl
//	dwsload -scenario gold-qos -out gold.jsonl   # compile only, no server
//
// The report counts 429 rejections and deadline misses per tenant
// separately from successful-completion latencies, and snapshots the
// server's tenant view (cores held, QoS entitlement, queue depth) so the
// latency split is explainable, not just visible.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"

	"dws/internal/scenario"
	"dws/internal/server"
)

func main() {
	var (
		addr      = flag.String("addr", "http://localhost:8080", "dwsd (or dwsrouter) base URL")
		rate      = flag.Float64("rate", 20, "ad-hoc: aggregate submission rate (req/s), split across tenants")
		duration  = flag.Duration("duration", 10*time.Second, "ad-hoc: how long to generate load")
		tenants   = flag.String("tenants", "alice=FFT,bob=Mergesort", "ad-hoc: tenant=kernel pairs")
		size      = flag.Float64("size", 0.1, "ad-hoc: job input scale")
		deadline  = flag.Duration("deadline", 0, "ad-hoc: per-job deadline (0 = server default)")
		weights   = flag.String("weights", "", "ad-hoc: tenant=weight QoS declarations, e.g. gold=2,bronze=1")
		seed      = flag.Int64("seed", 1, "RNG seed for arrivals and sizes (same seed = same trace)")
		arrival   = flag.String("arrival", "poisson", "ad-hoc arrival process: poisson or uniform")
		scName    = flag.String("scenario", "", "replay a catalog scenario (see -list) or a .jsonl trace file instead of ad-hoc load")
		out       = flag.String("out", "", "write the compiled trace here (.jsonl) and exit without replaying")
		timescale = flag.Float64("timescale", 1.0, "trace-time to wall-time ratio (0.5 = replay 2x faster)")
		list      = flag.Bool("list", false, "list catalog scenario names and exit")
	)
	flag.Parse()

	if *list {
		for _, name := range scenario.CatalogNames() {
			fmt.Println(name)
		}
		return
	}

	var (
		tr  *scenario.Trace
		err error
	)
	if *scName != "" {
		reseed := int64(0) // the catalog's own seed unless -seed asks otherwise
		if *seed != 1 {
			reseed = *seed
		}
		tr, err = scenario.Load(*scName, reseed)
	} else {
		var spec *scenario.Spec
		spec, err = adhocSpec(*rate, *duration, *tenants, *weights, *size, *deadline, *seed, *arrival)
		if err == nil {
			tr, err = spec.Compile()
		}
	}
	if err != nil {
		fatal(err)
	}

	if *out != "" {
		if err := scenario.WriteFile(*out, tr); err != nil {
			fatal(err)
		}
		fmt.Printf("dwsload: wrote %d events (%d tenants) to %s\n",
			len(tr.Events), len(tr.Tenants()), *out)
		return
	}

	res, err := scenario.RunLive(tr, scenario.LiveOptions{
		BaseURL:   *addr,
		TimeScale: *timescale,
		Logf: func(format string, args ...any) {
			fmt.Printf("dwsload: "+format+"\n", args...)
		},
	})
	if err != nil {
		fatal(err)
	}

	fmt.Printf("\n%s\n\n", res)
	fmt.Print(res.Table())

	// Snapshot the server-side tenant view (cores held, entitlement, queue
	// depth) so the report shows *why* the latency split looks the way it
	// does, not just the split itself.
	tinfos, err := fetchTenants(*addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dwsload: tenant snapshot failed: %v\n", err)
		return
	}
	fmt.Print(snapshotTable(tinfos))
}

// adhocSpec translates the classic dwsload flags into a scenario spec:
// each tenant gets an equal share of the aggregate rate and its own
// seeded arrival stream.
func adhocSpec(rate float64, duration time.Duration, tenants, weights string, size float64, deadline time.Duration, seed int64, arrival string) (*scenario.Spec, error) {
	if rate <= 0 {
		return nil, fmt.Errorf("rate must be positive")
	}
	if duration <= 0 {
		return nil, fmt.Errorf("duration must be positive")
	}
	pairs, err := parseTenants(tenants)
	if err != nil {
		return nil, err
	}
	weightOf, err := parseWeights(weights)
	if err != nil {
		return nil, err
	}
	var kind scenario.ArrivalKind
	switch arrival {
	case "poisson":
		kind = scenario.ArrivePoisson
	case "uniform":
		kind = scenario.ArriveUniform
	default:
		return nil, fmt.Errorf("bad -arrival %q (want poisson or uniform)", arrival)
	}
	spec := &scenario.Spec{
		Name:       "adhoc",
		Seed:       seed,
		DurationUS: duration.Microseconds(),
	}
	for _, p := range pairs {
		spec.Tenants = append(spec.Tenants, scenario.TenantSpec{
			Name:       p[0],
			Kernel:     p[1],
			Arrival:    scenario.Arrival{Kind: kind, RateHz: rate / float64(len(pairs))},
			Size:       scenario.Size{Kind: scenario.SizeFixed, Mean: size},
			DeadlineUS: deadline.Microseconds(),
			Weight:     weightOf[p[0]],
		})
	}
	return spec, nil
}

// snapshotTable renders the end-of-run server tenant view: the core-table
// share each tenant held, the cores the QoS arbiter entitled it to (w=
// prefixes its declared weight; "-" when arbitration is off), the
// admission queue depth left behind, and the tenant's shed / early-reject
// tallies from the WFQ front door.
func snapshotTable(tinfos []server.TenantInfo) string {
	if len(tinfos) == 0 {
		return ""
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "\nserver tenant snapshot:\n%-12s %6s %12s %6s %6s %9s\n",
		"tenant", "cores", "entitled", "queue", "shed", "earlyrej")
	for _, ti := range tinfos {
		cores, entitled := "-", "-"
		if ti.CoresHeld >= 0 {
			cores = fmt.Sprintf("%d", ti.CoresHeld)
		}
		if ti.EntitledCores >= 0 {
			entitled = fmt.Sprintf("%d(w=%g)", ti.EntitledCores, ti.Weight)
		}
		fmt.Fprintf(&sb, "%-12s %6s %12s %6d %6d %9d\n",
			ti.Name, cores, entitled, ti.QueueDepth, ti.Shed, ti.EarlyRejected)
	}
	return sb.String()
}

func fetchTenants(addr string) ([]server.TenantInfo, error) {
	resp, err := http.Get(addr + "/v1/tenants")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/tenants: %s", resp.Status)
	}
	var tis []server.TenantInfo
	return tis, json.NewDecoder(resp.Body).Decode(&tis)
}

func parseWeights(s string) (map[string]float64, error) {
	m := make(map[string]float64)
	if s == "" {
		return m, nil
	}
	for _, part := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("bad -weights entry %q (want name=weight)", part)
		}
		var weight float64
		if _, err := fmt.Sscanf(val, "%g", &weight); err != nil || weight <= 0 {
			return nil, fmt.Errorf("bad -weights value %q for %s (want a positive number)", val, name)
		}
		m[name] = weight
	}
	return m, nil
}

func parseTenants(s string) ([][2]string, error) {
	var pairs [][2]string
	for _, part := range strings.Split(s, ",") {
		name, kernel, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || name == "" || kernel == "" {
			return nil, fmt.Errorf("bad -tenants entry %q (want name=kernel)", part)
		}
		pairs = append(pairs, [2]string{name, kernel})
	}
	if len(pairs) == 0 {
		return nil, fmt.Errorf("-tenants must name at least one tenant")
	}
	return pairs, nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "dwsload: %v\n", err)
	os.Exit(1)
}
