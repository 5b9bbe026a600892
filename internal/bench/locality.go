// Locality A/B study — the numbers behind EXPERIMENTS.md's "Topology &
// locality" section. Every catalog scenario is replayed under DWS on the
// default two-socket machine (16 cores, sockets of 8) twice: topology
// awareness on (socket-adjacent entitlement placement + two-phase victim
// selection) and off (sim.Config.NoLocality — flat prefix-sum blocks and
// socket-blind victim scans). The machine itself is identical in both
// runs: the locality steal counters and the cross-socket steal penalty
// apply either way, so the delta isolates the policy, not the hardware
// model. Virtual-clock deterministic, like the scenario suite.
package bench

import (
	"fmt"
	"strings"

	"dws/internal/scenario"
	"dws/internal/sim"
)

// LocalityRow is one scenario's locality A/B under DWS.
type LocalityRow struct {
	Scenario string
	// On replayed with topology awareness, Off with NoLocality set.
	On, Off *scenario.Result
}

// socketTearSpec is the placement showcase the catalog lacks: three
// weighted tenants (1, 2, 1) under sustained fine-grained FFT load on
// the 16-core two-socket machine, so the arbiter publishes entitlements
// (4, 8, 4). The flat prefix-sum split hands the mid tenant cores
// [4..11] — straddling the socket boundary, so half its steals cross
// the interconnect by construction — while the placement pass packs it
// onto exactly socket 1. Victim *ordering* cannot reduce cross-socket
// work flux (a task produced on one socket and consumed on the other
// crosses once no matter the scan order); *placement* removes the flux
// at the source, and this trace isolates that effect.
func socketTearSpec() scenario.Spec {
	const second = 1_000_000
	// All three tenants share one uniform arrival rate so their first
	// events tie and program order stays the declaration order — the mid
	// tenant must sit in the middle slot of the prefix-sum for the flat
	// split to tear it across the boundary. Mid's double share comes from
	// double-sized jobs, keeping every tenant at ~80% of its entitled
	// capacity: busy enough that programs hold their blocks, idle enough
	// that workers steal constantly inside them.
	steady := func(name string, size, weight float64) scenario.TenantSpec {
		return scenario.TenantSpec{
			Name: name, Kernel: "p-1", Weight: weight,
			Arrival: scenario.Arrival{Kind: scenario.ArriveUniform, RateHz: 20},
			Size:    scenario.Size{Kind: scenario.SizeFixed, Mean: size},
		}
	}
	return scenario.Spec{
		Name: "socket-tear", Seed: 811, DurationUS: 2 * second,
		Tenants: []scenario.TenantSpec{
			steady("left", 0.04, 1),
			steady("mid", 0.08, 2),
			steady("right", 0.04, 1),
		},
	}
}

// RunLocalityStudy replays the catalog plus the socket-tear showcase
// under DWS with locality on and off and returns one row per scenario.
func RunLocalityStudy(logf func(format string, args ...any)) ([]LocalityRow, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	var rows []LocalityRow
	for _, spec := range append(scenario.Catalog(), socketTearSpec()) {
		tr, err := spec.Compile()
		if err != nil {
			return nil, err
		}
		replay, err := scenario.Prepare(tr)
		if err != nil {
			return nil, err
		}
		adm := &sim.AdmissionOpts{GlobalCap: len(tr.Tenants()) * 8, EarlyReject: true}
		run := func(noLocality bool) (*scenario.Result, error) {
			cfg := sim.DefaultConfig()
			cfg.Policy = sim.DWS
			cfg.NoLocality = noLocality
			return replay.Sim(scenario.SimOptions{Config: cfg, Admission: adm})
		}
		on, err := run(false)
		if err != nil {
			return nil, fmt.Errorf("bench: locality on, %s: %w", spec.Name, err)
		}
		off, err := run(true)
		if err != nil {
			return nil, fmt.Errorf("bench: locality off, %s: %w", spec.Name, err)
		}
		rows = append(rows, LocalityRow{Scenario: spec.Name, On: on, Off: off})
		logf("%-16s remote share %.3f -> %.3f  p95 %.1f -> %.1f ms  makespan %.0f -> %.0f ms",
			spec.Name, off.RemoteStealShare(), on.RemoteStealShare(),
			off.Latency.P95, on.Latency.P95, off.MakespanMS, on.MakespanMS)
	}
	return rows, nil
}

// FormatLocality renders the study as the markdown table EXPERIMENTS.md
// embeds: per scenario, the cross-socket share of successful steals and
// the p95/makespan, locality off → on.
func FormatLocality(rows []LocalityRow) string {
	var b strings.Builder
	b.WriteString("| scenario | remote share off | remote share on | p95 off (ms) | p95 on (ms) | makespan off (ms) | makespan on (ms) |\n")
	b.WriteString("|---|---|---|---|---|---|---|\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "| %s | %.3f | %.3f | %.2f | %.2f | %.0f | %.0f |\n",
			r.Scenario, r.Off.RemoteStealShare(), r.On.RemoteStealShare(),
			r.Off.Latency.P95, r.On.Latency.P95, r.Off.MakespanMS, r.On.MakespanMS)
	}
	return b.String()
}
