package sim

import (
	"fmt"
	"strings"

	"dws/internal/stats"
)

// ProgStats accumulates per-program counters over a simulation.
type ProgStats struct {
	// RunTimesUS holds the duration of every completed run, in simulated µs.
	RunTimesUS []int64
	// RunStartsUS holds each completed run's start time, aligned with
	// RunTimesUS (used to split runs around co-runner arrivals).
	RunStartsUS []int64
	// Steals and FailedSteals count steal attempts.
	Steals, FailedSteals int64
	// LocalSteals / RemoteSteals split the successful steals by whether
	// thief and victim shared a socket. On a flat machine RemoteSteals is
	// 0; the split is measured even under Config.NoLocality (that is the
	// point of the A/B study).
	LocalSteals, RemoteSteals int64
	// Sleeps / Wakes / Evictions count worker state transitions.
	Sleeps, Wakes, Evictions int64
	// Claims / Reclaims count core-allocation-table operations, the
	// coordinator's and those a program makes re-taking its home block.
	Claims, Reclaims int64
	// CoordTicks counts coordinator passes.
	CoordTicks int64
	// WorkUS is ideal work executed (µs of warm-cache work units).
	WorkUS float64
	// SpinUS is wall time burned in the steal loop.
	SpinUS int64
}

// ProgResult is the outcome of one program in a simulation.
type ProgResult struct {
	// Name is the workload's name.
	Name string
	// Stats are the raw counters, including all run times.
	Stats ProgStats
}

// MeanRunUS returns the mean completed-run duration in µs (0 if no run
// completed).
func (r ProgResult) MeanRunUS() float64 {
	if len(r.Stats.RunTimesUS) == 0 {
		return 0
	}
	xs := make([]float64, len(r.Stats.RunTimesUS))
	for i, t := range r.Stats.RunTimesUS {
		xs[i] = float64(t)
	}
	return stats.Mean(xs)
}

// Runs returns the number of completed runs.
func (r ProgResult) Runs() int { return len(r.Stats.RunTimesUS) }

// Sample is one core-occupancy snapshot (see RunOpts.SampleUS).
type Sample struct {
	// AtUS is the simulated time of the snapshot.
	AtUS int64
	// Running[c] is the ID (1-based) of the program whose worker is
	// scheduled on core c, or 0 if the core is idle.
	Running []int32
}

// Results is the outcome of a Machine.Run.
type Results struct {
	// EndTimeUS is the simulated time at which the machine stopped.
	EndTimeUS int64
	// Events is the number of processed simulation events. Every open-loop
	// delivery is one, so a federated shard's count includes its home
	// arrivals and the spills it received.
	Events int64
	// Programs holds one entry per program, in launch order.
	Programs []ProgResult
	// CoreBusyUS is, per core, the wall time a worker was scheduled.
	CoreBusyUS []int64
	// Samples holds the core-occupancy timeline when sampling was on.
	Samples []Sample
	// Jobs holds every open-loop job outcome (Machine.RunOpen; a federated
	// shard's, the jobs that resolved there), sorted by program then
	// stream index; nil for closed-loop runs.
	Jobs []JobOutcome
}

// TimelineASCII renders the occupancy samples as one row per core, one
// column per sample: '.' idle, '1'–'9' the running program. width caps
// the number of columns (0 = all samples).
func (r *Results) TimelineASCII(width int) string {
	if len(r.Samples) == 0 {
		return ""
	}
	samples := r.Samples
	if width > 0 && len(samples) > width {
		// Down-sample evenly.
		picked := make([]Sample, width)
		for i := range picked {
			picked[i] = samples[i*len(samples)/width]
		}
		samples = picked
	}
	cores := len(samples[0].Running)
	var sb strings.Builder
	for c := 0; c < cores; c++ {
		fmt.Fprintf(&sb, "c%-3d ", c)
		for _, s := range samples {
			id := s.Running[c]
			switch {
			case id == 0:
				sb.WriteByte('.')
			case id <= 9:
				sb.WriteByte(byte('0' + id))
			default:
				sb.WriteByte('+')
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Utilization returns the fraction of core-time that had a worker
// scheduled (including spinning thieves).
func (r *Results) Utilization() float64 {
	if r.EndTimeUS == 0 || len(r.CoreBusyUS) == 0 {
		return 0
	}
	var busy int64
	for _, b := range r.CoreBusyUS {
		busy += b
	}
	return float64(busy) / (float64(r.EndTimeUS) * float64(len(r.CoreBusyUS)))
}

func (r *Results) String() string {
	s := fmt.Sprintf("t=%dµs util=%.2f", r.EndTimeUS, r.Utilization())
	for _, p := range r.Programs {
		s += fmt.Sprintf(" | %s: %d runs, mean %.0fµs", p.Name, p.Runs(), p.MeanRunUS())
	}
	return s
}

// results snapshots the machine state into a Results.
func (m *Machine) results() *Results {
	r := &Results{EndTimeUS: m.now, Events: m.nEv, Samples: m.samples}
	for _, c := range m.cores {
		busy := c.busyUS
		if c.cur != nil {
			busy += m.now - c.busySince
		}
		r.CoreBusyUS = append(r.CoreBusyUS, busy)
	}
	for _, p := range m.progs {
		r.Programs = append(r.Programs, ProgResult{
			Name:  p.name,
			Stats: p.stats,
		})
	}
	if m.jobMode {
		r.Jobs = m.sortedJobLog()
	}
	return r
}
