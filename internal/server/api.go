package server

import "dws/internal/rt"

// This file is the wire schema of the dwsd HTTP API. The same types are
// the machine-readable output schema of the CLIs (dwsrun -json), so
// served-load results and command-line results can be compared directly.

// JobRequest is the body of POST /v1/jobs: run one kernel from the
// catalog (internal/kernels) on the submitting tenant's program.
type JobRequest struct {
	// Tenant names the submitting program; it is created on first use
	// (subject to a free program slot).
	Tenant string `json:"tenant"`
	// Kernel is a catalog name (FFT, PNN, Cholesky, LU, GE, Heat, SOR,
	// Mergesort), case-insensitive.
	Kernel string `json:"kernel"`
	// Size is the input scale (0 means the server default).
	Size float64 `json:"size,omitempty"`
	// DeadlineMS bounds queue wait + run time (0 means the server
	// default). A job whose deadline expires while still queued is
	// skipped, never started.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// Weight declares the tenant's QoS arbitration weight (0 keeps the
	// current declaration; tenants start at 1). Under DWS with the
	// arbiter enabled, a weight-2 tenant is entitled to roughly twice a
	// weight-1 tenant's cores when both are busy.
	Weight float64 `json:"weight,omitempty"`
	// SLOMs declares a target latency SLO in milliseconds (0 keeps the
	// current declaration). Tenants whose observed queue wait exceeds
	// the SLO get a bounded entitlement boost until they catch up.
	SLOMs int64 `json:"slo_ms,omitempty"`
}

// Stats mirrors rt.Stats as JSON — the scheduler counters of one program
// over one job (deltas) or one CLI run (totals).
type Stats struct {
	Steals       int64 `json:"steals"`
	FailedSteals int64 `json:"failed_steals"`
	// LocalSteals / RemoteSteals split successful deque steals by whether
	// thief and victim shared a socket (on a flat topology every deque
	// steal is local).
	LocalSteals  int64 `json:"local_steals,omitempty"`
	RemoteSteals int64 `json:"remote_steals,omitempty"`
	Sleeps       int64 `json:"sleeps"`
	Wakes        int64 `json:"wakes"`
	Evictions    int64 `json:"evictions"`
	Claims       int64 `json:"claims"`
	Reclaims     int64 `json:"reclaims"`
	Runs         int64 `json:"runs"`
	// Crash recovery: dead co-runner leases this program swept, and the
	// cores those sweeps freed (DWS only).
	DeadSweeps     int64 `json:"dead_sweeps,omitempty"`
	CoresRecovered int64 `json:"cores_recovered,omitempty"`
}

// FromRTStats converts runtime counters to the wire form.
func FromRTStats(s rt.Stats) Stats {
	return Stats{
		Steals:         s.Steals,
		FailedSteals:   s.FailedSteals,
		LocalSteals:    s.LocalSteals,
		RemoteSteals:   s.RemoteSteals,
		Sleeps:         s.Sleeps,
		Wakes:          s.Wakes,
		Evictions:      s.Evictions,
		Claims:         s.Claims,
		Reclaims:       s.Reclaims,
		Runs:           s.Runs,
		DeadSweeps:     s.DeadSweeps,
		CoresRecovered: s.CoresRecovered,
	}
}

// Sub returns s - o counter-wise (per-job deltas from cumulative program
// counters).
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		Steals:         s.Steals - o.Steals,
		FailedSteals:   s.FailedSteals - o.FailedSteals,
		LocalSteals:    s.LocalSteals - o.LocalSteals,
		RemoteSteals:   s.RemoteSteals - o.RemoteSteals,
		Sleeps:         s.Sleeps - o.Sleeps,
		Wakes:          s.Wakes - o.Wakes,
		Evictions:      s.Evictions - o.Evictions,
		Claims:         s.Claims - o.Claims,
		Reclaims:       s.Reclaims - o.Reclaims,
		Runs:           s.Runs - o.Runs,
		DeadSweeps:     s.DeadSweeps - o.DeadSweeps,
		CoresRecovered: s.CoresRecovered - o.CoresRecovered,
	}
}

// Job statuses.
const (
	StatusOK       = "ok"       // ran to completion
	StatusExpired  = "expired"  // deadline passed while queued; never started
	StatusCanceled = "canceled" // client went away while queued; never started
	StatusShed     = "shed"     // removed from the queue under global overload; never started
)

// JobResult is the response of POST /v1/jobs and one record of
// dwsrun -json output.
type JobResult struct {
	ID     uint64  `json:"id,omitempty"`
	Tenant string  `json:"tenant,omitempty"`
	Kernel string  `json:"kernel"`
	Policy string  `json:"policy"`
	Cores  int     `json:"cores"`
	Size   float64 `json:"size"`
	Status string  `json:"status"`
	// QueueMS is time spent waiting in the tenant's admission queue;
	// RunMS is input generation + execution; TotalMS is their sum.
	QueueMS float64 `json:"queue_ms"`
	RunMS   float64 `json:"run_ms"`
	TotalMS float64 `json:"total_ms"`
	// Stats are the program's scheduler-counter deltas over this job.
	Stats Stats `json:"stats"`
}

// TenantInfo is one entry of GET /v1/tenants.
type TenantInfo struct {
	Name       string `json:"name"`
	QueueDepth int    `json:"queue_depth"`
	QueueCap   int    `json:"queue_cap"`
	JobsServed int64  `json:"jobs_served"`
	// Shed counts queued jobs removed under global overload to admit
	// better-placed work; EarlyRejected counts jobs 429'd at submit
	// because their predicted queue wait exceeded their deadline.
	Shed          int64 `json:"shed,omitempty"`
	EarlyRejected int64 `json:"early_rejected,omitempty"`
	// CoresHeld is the tenant's current core allocation table share
	// (DWS only; -1 when the policy has no table).
	CoresHeld int `json:"cores_held"`
	// Weight and SLOMs echo the tenant's declared QoS parameters.
	Weight float64 `json:"weight,omitempty"`
	SLOMs  int64   `json:"slo_ms,omitempty"`
	// EntitledCores is the tenant's current arbiter entitlement — the
	// elastic home-block size reclaim is bounded by; -1 when the arbiter
	// is disabled or has not published yet.
	EntitledCores int   `json:"entitled_cores"`
	Stats         Stats `json:"stats"`
}

// Info is the response of GET /v1/info — enough for a load generator to
// label its report.
type Info struct {
	Policy string `json:"policy"`
	Cores  int    `json:"cores"`
	// Topology describes the hosted system's core topology ("flat" when
	// locality-aware placement is off).
	Topology   string `json:"topology,omitempty"`
	MaxTenants int    `json:"max_tenants"`
	FreeSlots  int    `json:"free_slots"`
	QueueDepth int    `json:"queue_depth"`
	// GlobalQueue is the backlog cap across all tenants (0 = uncapped);
	// EarlyReject reports whether deadline-aware early rejection is on.
	GlobalQueue int      `json:"global_queue_depth,omitempty"`
	EarlyReject bool     `json:"early_reject,omitempty"`
	DefaultSize float64  `json:"default_size"`
	Kernels     []string `json:"kernels"`
	// ArbiterPeriodMS is the QoS arbitration period (0 = disabled).
	ArbiterPeriodMS float64 `json:"arbiter_period_ms,omitempty"`
}

// ErrorResponse is the body of every non-2xx API response.
type ErrorResponse struct {
	Error string `json:"error"`
}
