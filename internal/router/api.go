package router

import "dws/internal/server"

// ShardSpec names one federated dwsd instance. Name is the ring identity
// (placement hashes it, so a stable name keeps tenants sticky across
// shard restarts on new ports); URL is where the instance listens.
type ShardSpec struct {
	Name string `json:"name"`
	URL  string `json:"url"`
}

// ShardHealth is one row of GET /v1/shards: the prober's live view.
type ShardHealth struct {
	Name    string `json:"name"`
	URL     string `json:"url"`
	Healthy bool   `json:"healthy"`
	// ProbeEWMAMs is the EWMA of probe round-trip latency.
	ProbeEWMAMs float64 `json:"probe_ewma_ms"`
	// Backlog is dws_global_queue_depth at the last successful probe.
	Backlog     float64 `json:"backlog"`
	ConsecFails int     `json:"consec_fails"`
	Probes      int64   `json:"probes"`
	ProbeFails  int64   `json:"probe_fails"`
	LastError   string  `json:"last_error,omitempty"`
	// Tenants is the number of tenants the ring currently homes here.
	Tenants int `json:"tenants"`
}

// Info is the router's GET /v1/info: shard-aggregate capacity plus the
// federation topology. It embeds server.Info so scenario.RunLive and
// dwsload can drive the router exactly as they drive one dwsd.
type Info struct {
	server.Info
	// Shards counts federation members; HealthyShards those taking work.
	Shards        int `json:"shards"`
	HealthyShards int `json:"healthy_shards"`
	// Spill is the active spill policy; SpillBudget the per-job hop cap.
	Spill       string `json:"spill"`
	SpillBudget int    `json:"spill_budget"`
}
