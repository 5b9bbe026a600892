package main

import (
	"fmt"

	"dws/internal/scenario"
)

// Client masks: which clients' samples a role pools.
const (
	clientA = 1 << iota
	clientB
)

// clientSpec is one closed-loop client of a live workload.
type clientSpec struct {
	kernel     string
	size       scenario.Size // compiled into the client's size sequence
	deadlineMS int64         // deadline_ms on every request; 0 = the server default
	thinkMS    [2]float64    // uniform think time after each answer; zero = back to back
	warmup     int           // requests sent during set-up
}

// liveSpec is one of the four live workloads: a stack and two clients.
type liveSpec struct {
	name         string
	shards       int // 1: clients talk to the dwsd; 2: a router stands in front
	shardCores   int
	shardTenants int
	clients      [2]clientSpec
	sharedTenant bool // both clients submit as one tenant
	// The clients whose ok jobs make jobs_per_s, and whose ok latencies
	// make latency_p50_ms / latency_p99_ms.
	throughputRole, latencyRole int
}

// The null kernel: Cholesky at a size that hits the catalog's n = 8 floor —
// microseconds of work, and available without touching internal/kernels.
var nullClient = clientSpec{
	kernel: "Cholesky", size: scenario.Size{Kind: scenario.SizeFixed, Mean: 0.001}, warmup: 2000,
}

// FFT at size 0.05 is n = 16 384, about 3 ms on this host's two cores.
var fftSize = scenario.Size{Kind: scenario.SizeFixed, Mean: 0.05}

var liveWorkloads = []liveSpec{
	{
		name: "null-direct", shards: 1, shardCores: 2, shardTenants: 2,
		clients:        [2]clientSpec{nullClient, nullClient},
		throughputRole: clientA | clientB, latencyRole: clientA | clientB,
	},
	{
		// One tenant slot per shard: client A fills its home shard, and
		// client B's tenant is picked so that its home is that same shard.
		name: "null-routed", shards: 2, shardCores: 1, shardTenants: 1,
		clients:        [2]clientSpec{nullClient, nullClient},
		throughputRole: clientA | clientB, latencyRole: clientA,
	},
	{
		// busy (A) keeps tenant T's runner occupied; impatient (B) asks the
		// same tenant for a null job within 1 ms, every 1 ms ± 20 %. The
		// pacing is what keeps busy's throughput steady: do not remove it.
		name: "refusal-storm", shards: 1, shardCores: 2, shardTenants: 2,
		clients: [2]clientSpec{
			{kernel: "FFT", size: fftSize, warmup: 50},
			{kernel: nullClient.kernel, size: nullClient.size, deadlineMS: 1, thinkMS: [2]float64{0.8, 1.2}, warmup: 50},
		},
		sharedTenant:   true,
		throughputRole: clientA, latencyRole: clientA,
	},
	{
		// hog (A) sorts back to back; bursty (B) leaves its core free for
		// 8–12 ms between FFTs, so the core is lent and has to be reclaimed.
		name: "corun-mix", shards: 1, shardCores: 2, shardTenants: 2,
		clients: [2]clientSpec{
			{kernel: "Mergesort", size: scenario.Size{Kind: scenario.SizeLognormal, Mean: 0.05, Sigma: 0.25, Max: 0.2}, warmup: 50},
			{kernel: "FFT", size: fftSize, thinkMS: [2]float64{8, 12}, warmup: 50},
		},
		throughputRole: clientA, latencyRole: clientB,
	},
}

const simSweepName = "sim-sweep"

func liveByName(name string) *liveSpec {
	for i := range liveWorkloads {
		if liveWorkloads[i].name == name {
			return &liveWorkloads[i]
		}
	}
	return nil
}

// sizeSequence compiles a client's size sequence with the committed
// generators: a one-tenant scenario.Spec whose job events carry the sizes.
func sizeSequence(seed int64, c clientSpec) ([]float64, error) {
	spec := scenario.Spec{
		Name: "benchmark", Seed: seed, DurationUS: 1_000_000,
		Tenants: []scenario.TenantSpec{{
			Name: "client", Kernel: c.kernel, Size: c.size,
			Arrival: scenario.Arrival{Kind: scenario.ArriveUniform, RateHz: 2048},
		}},
	}
	tr, err := spec.Compile()
	if err != nil {
		return nil, fmt.Errorf("compiling the size sequence: %w", err)
	}
	sizes := make([]float64, 0, len(tr.Events))
	for _, e := range tr.Events {
		if e.Op == scenario.OpJob {
			sizes = append(sizes, e.Scale)
		}
	}
	return sizes, nil
}
