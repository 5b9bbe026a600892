// Package server implements dwsd's job service: a multi-tenant HTTP
// front-end over one live rt.System. Each tenant maps to a co-running
// rt.Program, so submitted jobs contend for cores exactly as the paper's
// co-running programs do — under whichever policy (ABP/EP/DWS/DWS-NC) the
// system was started with.
//
// Production-shaped plumbing:
//
//   - bounded per-tenant admission queues; a full queue rejects with
//     429 and an honest Retry-After estimated from recent run times
//   - per-job deadlines: a job whose deadline (or client) expires while
//     queued is skipped, never started (running kernels are not
//     preemptible — the deadline bounds admission, not execution)
//   - graceful drain: Shutdown stops admission, serves what was already
//     accepted, then closes every program
//   - observability: /metrics (Prometheus text via internal/metrics) and
//     /healthz
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dws/internal/admit"
	"dws/internal/kernels"
	"dws/internal/metrics"
	"dws/internal/rt"
	"dws/internal/topo"
)

// Config describes a job server.
type Config struct {
	// Cores and Policy configure the hosted rt.System.
	Cores  int
	Policy rt.Policy
	// Topology is the socket map of the hosted system's core slots. nil
	// (or a flat topology) keeps the locality-free behaviour; a
	// multi-socket topology turns on socket-adjacent entitlement
	// placement and two-phase (same-socket-first) victim selection.
	Topology *topo.Topology
	// MaxTenants is the system's program-slot count m (tenants beyond it
	// are rejected until one is deleted); ≤0 defaults to Cores.
	MaxTenants int
	// QueueDepth bounds each tenant's admission queue; ≤0 defaults to 16.
	QueueDepth int
	// GlobalQueueDepth caps the total backlog across all tenants. At the
	// cap, an arriving job displaces the globally worst-placed queued job
	// in WFQ virtual time if there is one (shed-from-bronze before
	// reject-gold) and is rejected otherwise. 0 defaults to
	// MaxTenants×QueueDepth/2 (floored at QueueDepth); negative disables
	// the global cap entirely.
	GlobalQueueDepth int
	// NoEarlyReject disables deadline-aware early rejection. By default a
	// job whose predicted queue wait (run-time EWMA × backlog ahead)
	// already exceeds its deadline is 429'd at submit with an honest
	// Retry-After instead of expiring silently in the queue.
	NoEarlyReject bool
	// CoordPeriod and LeaseTTL tune the hosted system's coordinator
	// period and core-table lease expiry (crash/wedge recovery); ≤0 uses
	// the rt defaults (10ms, and 10×CoordPeriod floored at 2s).
	CoordPeriod time.Duration
	LeaseTTL    time.Duration
	// ArbiterPeriod tunes QoS core arbitration (DWS only): 0 enables it
	// at the default 50ms, negative disables it. With equal weights the
	// arbiter's entitlements degenerate to the static HomeCores split,
	// so enabling it by default changes nothing until a tenant declares
	// a weight or SLO.
	ArbiterPeriod time.Duration
}

func (c *Config) validate() error {
	if c.Cores <= 0 {
		return errors.New("server: Cores must be positive")
	}
	if c.MaxTenants <= 0 {
		c.MaxTenants = c.Cores
	}
	if c.MaxTenants > c.Cores {
		return fmt.Errorf("server: MaxTenants must be at most Cores (%d)", c.Cores)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	switch {
	case c.GlobalQueueDepth < 0:
		c.GlobalQueueDepth = 0 // explicitly disabled
	case c.GlobalQueueDepth == 0:
		c.GlobalQueueDepth = c.MaxTenants * c.QueueDepth / 2
		if c.GlobalQueueDepth < c.QueueDepth {
			c.GlobalQueueDepth = c.QueueDepth
		}
	}
	switch {
	case c.ArbiterPeriod < 0:
		c.ArbiterPeriod = 0 // explicitly disabled
	case c.ArbiterPeriod == 0 && c.Policy == rt.DWS:
		c.ArbiterPeriod = 50 * time.Millisecond
	}
	return nil
}

// Per-job defaults: a job that sets no deadline_ms gets defaultDeadline,
// one that sets no size gets defaultSize, and no job may exceed maxSize.
const (
	defaultDeadline = 30 * time.Second
	defaultSize     = 0.25
	maxSize         = 1.0
)

// Server hosts the rt.System and its tenants behind an http.Handler.
type Server struct {
	cfg Config
	sys *rt.System
	reg *metrics.Registry
	mux *http.ServeMux

	nextID atomic.Uint64

	mu       sync.Mutex
	tenants  map[string]*tenant
	draining bool

	// adm is the WFQ admission layer shared by every tenant.
	adm *admission

	// instruments
	mJobs          metrics.CounterVec // tenant, kernel, status
	mRejected      metrics.CounterVec // tenant, reason
	mShed          metrics.CounterVec // tenant
	mEarlyRejected metrics.CounterVec // tenant
	mEvicted       metrics.CounterVec // tenant
	mLatency       metrics.HistogramVec
	mQueueWait     metrics.HistogramVec
	mAdmissionWait metrics.HistogramVec
	mRunTime       metrics.HistogramVec
}

// New builds a server and its rt.System.
func New(cfg Config) (*Server, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	sys, err := rt.NewSystem(rt.Config{
		Cores:         cfg.Cores,
		Programs:      cfg.MaxTenants,
		Policy:        cfg.Policy,
		Topology:      cfg.Topology,
		CoordPeriod:   cfg.CoordPeriod,
		LeaseTTL:      cfg.LeaseTTL,
		ArbiterPeriod: cfg.ArbiterPeriod,
	})
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:     cfg,
		sys:     sys,
		reg:     metrics.NewRegistry(),
		mux:     http.NewServeMux(),
		tenants: make(map[string]*tenant),
		adm:     newAdmission(cfg.GlobalQueueDepth, !cfg.NoEarlyReject),
	}
	s.mJobs = s.reg.NewCounter("dws_jobs_total",
		"Jobs by final status.", "tenant", "kernel", "status")
	s.mRejected = s.reg.NewCounter("dws_jobs_rejected_total",
		"Jobs rejected at admission.", "tenant", "reason")
	s.mShed = s.reg.NewCounter("dws_jobs_shed_total",
		"Queued jobs shed under global overload to admit better-placed work.", "tenant")
	s.mEarlyRejected = s.reg.NewCounter("dws_jobs_early_rejected_total",
		"Jobs rejected at submit because their predicted queue wait exceeded their deadline.", "tenant")
	s.mEvicted = s.reg.NewCounter("dws_tenants_evicted_total",
		"Tenants evicted because their program's core-table lease expired.", "tenant")
	s.mLatency = s.reg.NewHistogram("dws_job_latency_seconds",
		"End-to-end job latency (queue wait + run).", nil, "tenant", "kernel")
	s.mQueueWait = s.reg.NewHistogram("dws_job_queue_seconds",
		"Time jobs spend in the admission queue.", nil, "tenant")
	s.mAdmissionWait = s.reg.NewHistogram("dws_admission_wait_seconds",
		"Time between WFQ admission and dequeue, for every departure (served, expired, or shed).",
		metrics.ExpBuckets(0.001, 2, 16), "tenant")
	s.mRunTime = s.reg.NewHistogram("dws_job_run_seconds",
		"Kernel run time (input generation + execution).", nil, "kernel")

	// Build/config identity as a constant-1 gauge, Prometheus build_info
	// style: dashboards join on its labels to slice every other series by
	// policy.
	buildInfo := s.reg.NewGauge("dws_build_info",
		"Constant 1, labelled with the server's scheduling policy and Go runtime version.",
		"policy", "go")
	buildInfo.With(sys.Policy().String(), runtime.Version()).Set(1)

	// Scrape-time gauges: live queue depths, program counters, and the
	// core allocation table.
	qDepth := s.reg.NewGauge("dws_queue_depth", "Admission queue depth.", "tenant")
	progGauges := map[string]func(Stats) int64{
		"dws_program_steals":        func(st Stats) int64 { return st.Steals },
		"dws_program_failed_steals": func(st Stats) int64 { return st.FailedSteals },
		"dws_program_sleeps":        func(st Stats) int64 { return st.Sleeps },
		"dws_program_wakes":         func(st Stats) int64 { return st.Wakes },
		"dws_program_evictions":     func(st Stats) int64 { return st.Evictions },
		"dws_program_claims":        func(st Stats) int64 { return st.Claims },
		"dws_program_reclaims":      func(st Stats) int64 { return st.Reclaims },
		"dws_program_runs":          func(st Stats) int64 { return st.Runs },
	}
	progVecs := make(map[string]metrics.GaugeVec, len(progGauges))
	for name := range progGauges {
		progVecs[name] = s.reg.NewGauge(name,
			"Cumulative rt.Stats counter for the tenant's program.", "tenant")
	}
	freeSlots := s.reg.NewGauge("dws_free_tenant_slots",
		"Program slots available for new tenants.")
	globalDepth := s.reg.NewGauge("dws_global_queue_depth",
		"Total admission backlog across all tenants (WFQ).")
	s.reg.OnScrape(func() {
		freeSlots.With().Set(float64(s.sys.FreeSlots()))
		globalDepth.With().Set(float64(s.adm.total()))
		for _, t := range s.tenantList() {
			qDepth.With(t.name).Set(float64(t.queueLen()))
			st := t.prog.Stats()
			for name, get := range progGauges {
				progVecs[name].With(t.name).Set(float64(get(st)))
			}
		}
	})

	// Locality-split steal series exist only on a multi-socket topology —
	// the flat runtime does not bucket steals, so the series would be a
	// misleading constant 0 (same reasoning as the DWS-only table gauges
	// below). Cumulative counters surfaced at scrape, in the style of
	// dws_entitlement_changes_total.
	if tp := cfg.Topology; tp != nil && !tp.Flat() {
		stealsTotal := s.reg.NewGauge("dws_steals_total",
			"Successful deque steals split by locality (local = thief and victim share a socket, remote = cross-socket). Cumulative.",
			"tenant", "locality")
		s.reg.OnScrape(func() {
			for _, t := range s.tenantList() {
				st := t.prog.Stats()
				stealsTotal.With(t.name, "local").Set(float64(st.LocalSteals))
				stealsTotal.With(t.name, "remote").Set(float64(st.RemoteSteals))
			}
		})
	}

	// Core-allocation-table collectors exist only under DWS — the other
	// policies have no table, and registering gauges that can never emit a
	// series would just hide their absence (System.Occupants returning nil
	// used to make this failure mode silent).
	if sys.Policy() == rt.DWS {
		coreOcc := s.reg.NewGauge("dws_core_occupant",
			"Core allocation table: occupying program slot ID (0 = free).", "core")
		coresHeld := s.reg.NewGauge("dws_cores_held",
			"Cores the tenant currently holds in the allocation table.", "tenant")
		deadSweeps := s.reg.NewGauge("dws_dead_programs_swept",
			"Dead program leases swept by crash recovery (cumulative).")
		recovered := s.reg.NewGauge("dws_cores_recovered",
			"Cores freed from dead programs by crash recovery (cumulative).")
		s.reg.OnScrape(func() {
			occ := s.sys.Occupants()
			for c, id := range occ {
				coreOcc.With(strconv.Itoa(c)).Set(float64(id))
			}
			for _, t := range s.tenantList() {
				held := 0
				for _, id := range occ {
					if int(id) == t.prog.Slot()+1 {
						held++
					}
				}
				coresHeld.With(t.name).Set(float64(held))
			}
			ds, cr := s.sys.RecoveryStats()
			deadSweeps.With().Set(float64(ds))
			recovered.With().Set(float64(cr))
		})
		// QoS arbitration collectors exist only when the arbiter runs:
		// entitlements per tenant, plus the cumulative count of entitlement
		// rows the arbiter actually changed (its decision churn).
		if arb := sys.Arbiter(); arb != nil {
			entitled := s.reg.NewGauge("dws_entitled_cores",
				"Cores the QoS arbiter currently entitles the tenant to (its elastic home-block size).", "tenant")
			entChanges := s.reg.NewGauge("dws_entitlement_changes_total",
				"Entitlement rows the arbiter has changed (cumulative).")
			s.reg.OnScrape(func() {
				ents := s.sys.Entitlements()
				published := s.sys.EntitlementEpoch() > 0
				for _, t := range s.tenantList() {
					e := -1.0
					if published {
						e = float64(ents[t.prog.Slot()])
					}
					entitled.With(t.name).Set(e)
				}
				entChanges.With().Set(float64(arb.Changes()))
			})
		}
		// Evict tenants whose program stopped beating its lease: the
		// sweeper already freed their cores; here the tenant slot itself is
		// reclaimed so new tenants can be admitted.
		sys.SetDeadProgramHandler(s.onDeadProgram)
	}

	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmitJob)
	s.mux.HandleFunc("GET /v1/tenants", s.handleListTenants)
	s.mux.HandleFunc("DELETE /v1/tenants/{name}", s.handleDeleteTenant)
	s.mux.HandleFunc("GET /v1/info", s.handleInfo)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.Handle("GET /metrics", s.reg.Handler())
	return s, nil
}

// tenantList snapshots the current tenants.
func (s *Server) tenantList() []*tenant {
	s.mu.Lock()
	defer s.mu.Unlock()
	ts := make([]*tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		ts = append(ts, t)
	}
	return ts
}

// onDeadProgram evicts the tenant whose program's lease expired (its
// coordinator wedged or stopped beating): the tenant is removed from the
// map and its still-queued jobs are failed fast as their turns come (the
// program cannot be trusted to run them). It runs on a sweeper goroutine
// and must not block, so an idle victim is finished (Program.Close) on a
// goroutine of its own; a busy one is finished by its last release.
func (s *Server) onDeadProgram(slot int, _ int32, _ int) {
	s.mu.Lock()
	var victim *tenant
	idle := false
	for name, t := range s.tenants {
		if t.prog.Slot() == slot {
			victim = t
			delete(s.tenants, name)
			t.evicted.Store(true)
			idle = s.adm.closeTenant(t)
			break
		}
	}
	s.mu.Unlock()
	if victim != nil {
		s.mEvicted.With(victim.name).Inc()
	}
	if idle {
		go victim.finish()
	}
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// System exposes the hosted runtime (read-only use: stats, occupancy).
func (s *Server) System() *rt.System { return s.sys }

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// handleSubmitJob admits one job into the tenant's queue, serves it on
// this goroutine when its turn comes, and answers with its result. A job
// that never started by its deadline answers 504.
func (s *Server) handleSubmitJob(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	body := bufs.Get().(*bytes.Buffer)
	body.Reset()
	_, err := body.ReadFrom(http.MaxBytesReader(w, r.Body, 1<<20))
	if err == nil {
		err = decodeJobRequest(body.Bytes(), &req)
	}
	putBuf(body) // the request holds copies of its strings
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if !validTenantName(req.Tenant) {
		writeError(w, http.StatusBadRequest,
			"tenant must match %s", tenantNamePattern)
		return
	}
	spec, ok := kernels.ByName(req.Kernel)
	if !ok {
		writeError(w, http.StatusBadRequest,
			"unknown kernel %q (have %v)", req.Kernel, kernels.Names())
		return
	}
	if req.Weight < 0 || req.SLOMs < 0 {
		writeError(w, http.StatusBadRequest,
			"weight and slo_ms must be non-negative")
		return
	}
	size := req.Size
	if size <= 0 {
		size = defaultSize
	}
	if size > maxSize {
		writeError(w, http.StatusBadRequest,
			"size %v exceeds the server cap %v", size, maxSize)
		return
	}
	deadline := defaultDeadline
	if req.DeadlineMS > 0 {
		deadline = time.Duration(req.DeadlineMS) * time.Millisecond
	}
	now := time.Now()

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.mRejected.With(req.Tenant, "draining").Inc()
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	t, ok := s.tenants[req.Tenant]
	if !ok {
		prog, err := s.sys.NewProgram(req.Tenant)
		if err != nil {
			s.mu.Unlock()
			s.mRejected.With(req.Tenant, "no_slot").Inc()
			writeError(w, http.StatusServiceUnavailable,
				"no free tenant slot (max %d): %v", s.cfg.MaxTenants, err)
			return
		}
		t = newTenant(s, req.Tenant, prog)
		s.tenants[req.Tenant] = t
	}
	// A declared weight or SLO updates the tenant's QoS; omitted fields
	// keep the current declaration. The arbiter reads these on its next
	// tick, so entitlements follow within one period; the WFQ flow weight
	// follows immediately (already queued jobs keep their tags).
	if req.Weight > 0 || req.SLOMs > 0 {
		weight, slo := t.prog.QoS()
		if req.Weight > 0 {
			weight = req.Weight
		}
		if req.SLOMs > 0 {
			slo = time.Duration(req.SLOMs) * time.Millisecond
		}
		t.prog.SetQoS(weight, slo)
		s.adm.setWeight(t.flow, weight)
	}
	s.mu.Unlock()

	// Built only now, so a draining or no_slot refusal allocates no job.
	j := &job{
		id:       s.nextID.Add(1),
		req:      req,
		spec:     spec,
		size:     size,
		tn:       t,
		client:   r.Context(),
		enqueued: now,
		deadline: now.Add(deadline),
		done:     make(chan struct{}),
	}
	verdict, retry, victim := s.adm.submit(t, j, deadline)
	reject := func(format string, args ...any) {
		reason := verdict.String()
		s.mRejected.With(req.Tenant, reason).Inc()
		w.Header().Set("Retry-After", strconv.Itoa(int(retry.Seconds())))
		w.Header().Set(RejectReasonHeader, reason)
		writeError(w, http.StatusTooManyRequests, format, args...)
	}
	switch verdict {
	case admitClosed:
		// The tenant was torn down between the map lookup and the
		// admission decision (deletion, drain, or eviction race).
		s.mRejected.With(req.Tenant, "draining").Inc()
		writeError(w, http.StatusServiceUnavailable,
			"tenant %q is shutting down; retry to re-create it", req.Tenant)
		return
	case admit.EarlyReject:
		t.earlyRejected.Add(1)
		s.mEarlyRejected.With(req.Tenant).Inc()
		reject("predicted queue wait already exceeds the %v deadline; retry in %v", deadline, retry)
		return
	case admit.QueueFull:
		reject("tenant %q admission queue is full (%d deep); retry in %v",
			req.Tenant, t.depth, retry)
		return
	case admit.Overload:
		reject("server backlog is at its global cap (%d) and no lower-priority work is queued; retry in %v",
			s.cfg.GlobalQueueDepth, retry)
		return
	}
	if victim != nil {
		s.resolveShed(victim)
	}
	if j.turn != nil && !s.awaitTurn(w, j, deadline) {
		return
	}
	t.serve(j)
	s.adm.release(t)
	s.writeResult(w, j)
}

// awaitTurn blocks a queued job's handler until release hands the job its
// turn (true). Otherwise the job was shed, and its result is written here,
// or it is left behind in the queue because its deadline passed (504: it
// never started) or its client went away.
func (s *Server) awaitTurn(w http.ResponseWriter, j *job, deadline time.Duration) bool {
	// The deadline is the job's timestamp plus this one timer, armed only
	// for jobs that wait; serve compares the same timestamp.
	expiry := time.NewTimer(time.Until(j.deadline))
	defer expiry.Stop()
	select {
	case <-j.turn:
		return true
	case <-j.done:
	case <-expiry.C:
	case <-j.client.Done():
	}
	if s.adm.leave(j) {
		if j.client.Err() == nil {
			writeError(w, http.StatusGatewayTimeout,
				"job %d did not start within its %v deadline", j.id, deadline)
		}
		return false
	}
	select {
	case <-j.turn:
		return true
	case <-j.done:
		s.writeResult(w, j)
		return false
	}
}

func (s *Server) writeResult(w http.ResponseWriter, j *job) {
	code := http.StatusOK
	switch j.res.Status {
	case StatusExpired:
		code = http.StatusGatewayTimeout
	case StatusCanceled:
		code = http.StatusServiceUnavailable
	case StatusShed:
		code = http.StatusTooManyRequests
		w.Header().Set("Retry-After", strconv.Itoa(int(j.retry.Seconds())))
		w.Header().Set(RejectReasonHeader, admit.Shed.String())
	}
	buf := bufs.Get().(*bytes.Buffer)
	buf.Reset()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(appendJobResult(buf.AvailableBuffer(), &j.res))
	putBuf(buf)
}

// resolveShed finishes a job that the WFQ layer removed from the queue
// under global overload: its blocked submit handler answers 429 with an
// honest Retry-After, exactly as if the job had been rejected up front. A
// job whose handler already left is resolved as serve would have, so it
// keeps the one verdict its client was given.
func (s *Server) resolveShed(j *job) {
	t := j.tn
	if j.left {
		t.serve(j)
		return
	}
	queueWait := time.Since(j.enqueued)
	j.retry = t.retryAfter()
	j.res = j.result(StatusShed, queueWait, 0, Stats{})
	t.shed.Add(1)
	s.mShed.With(t.name).Inc()
	s.mRejected.With(t.name, admit.Shed.String()).Inc()
	s.mJobs.With(t.name, j.spec.Name, StatusShed).Inc()
	s.mAdmissionWait.With(t.name).Observe(queueWait.Seconds())
	close(j.done)
}

func (s *Server) handleListTenants(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	ts := make([]*tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		ts = append(ts, t)
	}
	s.mu.Unlock()
	infos := make([]TenantInfo, 0, len(ts))
	for _, t := range ts {
		infos = append(infos, t.info())
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	writeJSON(w, http.StatusOK, infos)
}

// handleDeleteTenant drains the tenant's queue, closes its program (the
// freed slot becomes available to new tenants), and returns when done.
func (s *Server) handleDeleteTenant(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	s.mu.Lock()
	t, ok := s.tenants[name]
	idle := false
	if ok {
		delete(s.tenants, name)
		idle = s.adm.closeTenant(t)
	}
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, "unknown tenant %q", name)
		return
	}
	if idle {
		t.finish()
	}
	<-t.exited
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleInfo(w http.ResponseWriter, _ *http.Request) {
	topology := "flat"
	if tp := s.cfg.Topology; tp != nil && !tp.Flat() {
		topology = tp.String()
	}
	writeJSON(w, http.StatusOK, Info{
		Policy:          s.sys.Policy().String(),
		Cores:           s.sys.Cores(),
		Topology:        topology,
		MaxTenants:      s.cfg.MaxTenants,
		FreeSlots:       s.sys.FreeSlots(),
		QueueDepth:      s.cfg.QueueDepth,
		GlobalQueue:     s.cfg.GlobalQueueDepth,
		EarlyReject:     !s.cfg.NoEarlyReject,
		DefaultSize:     defaultSize,
		Kernels:         kernels.Names(),
		ArbiterPeriodMS: float64(s.cfg.ArbiterPeriod) / float64(time.Millisecond),
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ok")
}

// Shutdown gracefully drains the server: admission stops (healthz flips
// to 503, new jobs are rejected), every queued job is still served, and
// the programs and system are closed. It returns early with ctx's error
// if the drain outlives ctx; queued work then keeps draining in the
// background, but the system is not closed.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return errors.New("server: already draining")
	}
	s.draining = true
	ts := make([]*tenant, 0, len(s.tenants))
	var idle []*tenant
	for name, t := range s.tenants {
		delete(s.tenants, name)
		if s.adm.closeTenant(t) {
			idle = append(idle, t)
		}
		ts = append(ts, t)
	}
	s.mu.Unlock()

	for _, t := range idle {
		t.finish()
	}
	for _, t := range ts {
		select {
		case <-t.exited:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	s.sys.Close()
	return nil
}
