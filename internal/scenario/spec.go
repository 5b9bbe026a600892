package scenario

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Spec declares a scenario generatively; Compile turns it into a concrete
// Trace with a seeded RNG, so the same Spec and seed always yield the
// identical event list.
type Spec struct {
	// Name labels the compiled trace.
	Name string
	// Seed drives every random draw (per-tenant streams derive from it).
	Seed int64
	// DurationUS is the arrival window: no event is generated at or after
	// this time.
	DurationUS int64
	// Tenants declares one generator per tenant.
	Tenants []TenantSpec
}

// TenantSpec declares one tenant's arrival process and job shape.
type TenantSpec struct {
	// Name is the tenant name.
	Name string
	// Kernel is the workload the tenant submits ("p-1"…"p-8", "s-1"…"s-3",
	// or a name like "FFT").
	Kernel string
	// Arrival is the arrival process.
	Arrival Arrival
	// Size is the per-job input-scale distribution.
	Size Size
	// DeadlineUS, when positive, stamps every job with this deadline.
	DeadlineUS int64
	// Weight, when non-zero, is declared on the tenant's first event (QoS
	// arbitration weight; 0 leaves the server default of 1).
	Weight float64
	// JoinUS/LeaveUS bound the tenant's presence (tenant churn): a positive
	// JoinUS emits a join event and no earlier arrivals; a positive LeaveUS
	// emits a leave event and no later arrivals. 0 means present for the
	// whole trace with no churn events.
	JoinUS, LeaveUS int64
}

// ArrivalKind selects an arrival process.
type ArrivalKind string

const (
	// ArriveUniform spaces jobs exactly 1/RateHz apart.
	ArriveUniform ArrivalKind = "uniform"
	// ArrivePoisson draws exponential interarrivals at RateHz.
	ArrivePoisson ArrivalKind = "poisson"
	// ArriveBursty is a two-state MMPP: a fraction BurstFrac of the time the
	// process runs at BurstFactor×RateHz, the rest at a compensating low
	// rate, so the long-run mean stays RateHz.
	ArriveBursty ArrivalKind = "bursty"
	// ArriveDiurnal thins a Poisson process by a sinusoid with Phases full
	// periods over the trace: rate(t) = RateHz·(1+sin)/… normalised to a
	// RateHz mean.
	ArriveDiurnal ArrivalKind = "diurnal"
)

// Arrival declares an arrival process.
type Arrival struct {
	Kind ArrivalKind
	// RateHz is the long-run mean arrival rate, in jobs per second of trace
	// time.
	RateHz float64
	// BurstFactor (bursty): rate multiplier inside a burst (>1).
	BurstFactor float64
	// BurstFrac (bursty): fraction of time spent bursting (0,1).
	BurstFrac float64
	// Phases (diurnal): number of full sinusoid periods over the trace
	// duration (≥1).
	Phases int
}

// SizeKind selects a job-size distribution.
type SizeKind string

const (
	// SizeFixed uses Mean for every job.
	SizeFixed SizeKind = "fixed"
	// SizePareto draws Pareto(α=Alpha) sizes with the given Mean
	// (heavy-tailed service sizes; requires Alpha > 1).
	SizePareto SizeKind = "pareto"
	// SizeLognormal draws lognormal sizes with the given Mean and log-space
	// σ=Sigma.
	SizeLognormal SizeKind = "lognormal"
)

// Size declares a job-size distribution over kernel input scales.
type Size struct {
	Kind SizeKind
	// Mean is the distribution mean (kernel scale units).
	Mean float64
	// Alpha is the Pareto tail exponent (>1; heavier tail as α→1).
	Alpha float64
	// Sigma is the lognormal log-space standard deviation.
	Sigma float64
	// Max truncates draws (0 = Mean×20, a guard against sim-breaking
	// outliers).
	Max float64
}

// Validate checks the spec without compiling it.
func (s *Spec) Validate() error {
	if err := checkName("spec name", s.Name); err != nil {
		return err
	}
	if s.DurationUS <= 0 {
		return fmt.Errorf("scenario: spec %q: DurationUS must be positive", s.Name)
	}
	if len(s.Tenants) == 0 {
		return fmt.Errorf("scenario: spec %q has no tenants", s.Name)
	}
	seen := map[string]bool{}
	for i, t := range s.Tenants {
		where := fmt.Sprintf("scenario: spec %q tenant %d", s.Name, i)
		if err := checkName("tenant", t.Name); err != nil {
			return fmt.Errorf("%s: %w", where, err)
		}
		if seen[t.Name] {
			return fmt.Errorf("%s: duplicate tenant %q", where, t.Name)
		}
		seen[t.Name] = true
		if err := checkName("kernel", t.Kernel); err != nil {
			return fmt.Errorf("%s: %w", where, err)
		}
		if t.Arrival.RateHz <= 0 {
			return fmt.Errorf("%s: RateHz must be positive", where)
		}
		switch t.Arrival.Kind {
		case ArriveUniform, ArrivePoisson:
		case ArriveBursty:
			if t.Arrival.BurstFactor <= 1 || t.Arrival.BurstFrac <= 0 || t.Arrival.BurstFrac >= 1 {
				return fmt.Errorf("%s: bursty needs BurstFactor>1 and BurstFrac in (0,1)", where)
			}
			if t.Arrival.BurstFactor*t.Arrival.BurstFrac >= 1 {
				return fmt.Errorf("%s: burst consumes the whole rate budget (BurstFactor×BurstFrac must be <1)", where)
			}
		case ArriveDiurnal:
			if t.Arrival.Phases < 1 {
				return fmt.Errorf("%s: diurnal needs Phases ≥ 1", where)
			}
		default:
			return fmt.Errorf("%s: unknown arrival kind %q", where, t.Arrival.Kind)
		}
		if t.Size.Mean <= 0 {
			return fmt.Errorf("%s: size Mean must be positive", where)
		}
		switch t.Size.Kind {
		case SizeFixed, SizeLognormal:
		case SizePareto:
			if t.Size.Alpha <= 1 {
				return fmt.Errorf("%s: Pareto needs Alpha > 1 for a finite mean", where)
			}
		default:
			return fmt.Errorf("%s: unknown size kind %q", where, t.Size.Kind)
		}
		if t.DeadlineUS < 0 || t.Weight < 0 {
			return fmt.Errorf("%s: negative deadline or weight", where)
		}
		if t.JoinUS < 0 || t.LeaveUS < 0 ||
			(t.LeaveUS > 0 && t.LeaveUS <= t.JoinUS) || t.JoinUS >= s.DurationUS {
			return fmt.Errorf("%s: bad churn window [%d,%d)", where, t.JoinUS, t.LeaveUS)
		}
	}
	return nil
}

// Compile generates the concrete trace. Each tenant draws from its own
// sub-stream of the spec seed, so adding a tenant never perturbs the
// others' arrivals.
func (s *Spec) Compile() (*Trace, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	tr := &Trace{Version: Version, Name: s.Name, Seed: s.Seed}
	for i, t := range s.Tenants {
		rng := rand.New(rand.NewSource(s.Seed + int64(i)*104729 + 1))
		end := s.DurationUS
		if t.LeaveUS > 0 && t.LeaveUS < end {
			end = t.LeaveUS
		}
		first := true
		weight := func() float64 {
			if first {
				first = false
				return t.Weight
			}
			return 0
		}
		if t.JoinUS > 0 {
			tr.Events = append(tr.Events, Event{AtUS: t.JoinUS, Tenant: t.Name, Op: OpJoin, Weight: weight()})
		}
		for _, at := range arrivals(rng, t.Arrival, t.JoinUS, end, s.DurationUS) {
			tr.Events = append(tr.Events, Event{
				AtUS:       at,
				Tenant:     t.Name,
				Op:         OpJob,
				Kernel:     t.Kernel,
				Scale:      drawSize(rng, t.Size),
				DeadlineUS: t.DeadlineUS,
				Weight:     weight(),
			})
		}
		if t.LeaveUS > 0 && t.LeaveUS <= s.DurationUS {
			tr.Events = append(tr.Events, Event{AtUS: t.LeaveUS, Tenant: t.Name, Op: OpLeave})
		}
	}
	// Merge tenant streams into one time-ordered list. The sort is stable
	// and ties break by tenant declaration order (the generation order), so
	// compilation is deterministic.
	sort.SliceStable(tr.Events, func(i, j int) bool { return tr.Events[i].AtUS < tr.Events[j].AtUS })
	if err := tr.Validate(); err != nil {
		return nil, fmt.Errorf("scenario: compiled trace invalid: %w", err)
	}
	return tr, nil
}

// arrivals generates one tenant's arrival times in [start, end).
// durationUS is the full trace length (the diurnal period base).
func arrivals(rng *rand.Rand, a Arrival, start, end, durationUS int64) []int64 {
	var out []int64
	perUS := a.RateHz / 1e6 // mean arrivals per µs
	switch a.Kind {
	case ArriveUniform:
		gap := int64(math.Round(1 / perUS))
		if gap < 1 {
			gap = 1
		}
		for at := start + gap; at < end; at += gap {
			out = append(out, at)
		}
	case ArrivePoisson:
		for at := start + expGap(rng, perUS); at < end; at += expGap(rng, perUS) {
			out = append(out, at)
		}
	case ArriveBursty:
		// Two-state MMPP with mean state dwell of 1/10th the window: the
		// burst state runs at BurstFactor×rate, the calm state at the
		// compensating rate so the long-run mean is RateHz.
		calm := perUS * (1 - a.BurstFactor*a.BurstFrac) / (1 - a.BurstFrac)
		burst := perUS * a.BurstFactor
		dwell := float64(end-start) / 10
		burstDwell := dwell * a.BurstFrac
		calmDwell := dwell * (1 - a.BurstFrac)
		inBurst := rng.Float64() < a.BurstFrac
		at := start
		stateEnd := at + expGap(rng, 1/pick(inBurst, burstDwell, calmDwell))
		for at < end {
			next := at + expGap(rng, pick(inBurst, burst, calm))
			if next >= stateEnd && stateEnd < end {
				// The state switches before the drawn arrival: jump to the
				// switch and redraw at the new rate (exponential clocks are
				// memoryless, so discarding the stale draw is exact).
				at = stateEnd
				inBurst = !inBurst
				stateEnd = at + expGap(rng, 1/pick(inBurst, burstDwell, calmDwell))
				continue
			}
			at = next
			if at >= end {
				break
			}
			out = append(out, at)
		}
	case ArriveDiurnal:
		// Thinned Poisson: draw at the peak rate 2×RateHz, keep each draw
		// with probability (1+sin(2π·Phases·t/T))/2, preserving a RateHz
		// mean over whole periods.
		peak := 2 * perUS
		omega := 2 * math.Pi * float64(a.Phases) / float64(durationUS)
		for at := start + expGap(rng, peak); at < end; at += expGap(rng, peak) {
			keep := (1 + math.Sin(omega*float64(at))) / 2
			if rng.Float64() < keep {
				out = append(out, at)
			}
		}
	}
	return out
}

// expGap draws an exponential interarrival (µs) for a rate in events/µs,
// clamped to ≥1µs so events always advance time.
func expGap(rng *rand.Rand, perUS float64) int64 {
	g := int64(math.Ceil(rng.ExpFloat64() / perUS))
	if g < 1 {
		g = 1
	}
	return g
}

func pick(b bool, x, y float64) float64 {
	if b {
		return x
	}
	return y
}

// drawSize draws one job size, truncated to (0, Max].
func drawSize(rng *rand.Rand, s Size) float64 {
	max := s.Max
	if max <= 0 {
		max = s.Mean * 20
	}
	var v float64
	switch s.Kind {
	case SizeFixed:
		return s.Mean
	case SizePareto:
		// Pareto with mean m has x_m = m(α−1)/α; inversion sampling.
		xm := s.Mean * (s.Alpha - 1) / s.Alpha
		v = xm / math.Pow(1-rng.Float64(), 1/s.Alpha)
	case SizeLognormal:
		// Lognormal with mean m has µ = ln m − σ²/2.
		mu := math.Log(s.Mean) - s.Sigma*s.Sigma/2
		v = math.Exp(mu + s.Sigma*rng.NormFloat64())
	}
	if v > max {
		v = max
	}
	// Round to 6 significant-ish decimals so traces stay readable and the
	// JSONL encoding stays compact; rounding happens at generation so
	// the written trace IS the canonical one.
	v = math.Round(v*1e6) / 1e6
	if v <= 0 {
		v = 1e-6
	}
	return v
}
