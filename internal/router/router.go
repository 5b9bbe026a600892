package router

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"dws/internal/admit"
	"dws/internal/metrics"
	"dws/internal/server"
)

// Spill policy names accepted by Config.Spill, matching the sim's
// SpillPolicy vocabulary so one flag value drives both substrates.
const (
	SpillNone   = "none"
	SpillRandom = "random"
	SpillNext   = "next"
)

// Config describes the federation front tier.
type Config struct {
	// Shards are the federated dwsd instances; at least one.
	Shards []ShardSpec
	// Spill selects the redirect policy: "none", "random", or "next"
	// (next-preferred in ring order, the default).
	Spill string
	// SpillBudget caps redirect hops per job (≤0 = 2): a job is offered to
	// at most 1+SpillBudget shards.
	SpillBudget int
	// ProbePeriod is the health-probe interval (≤0 = 1s).
	ProbePeriod time.Duration
	// EjectAfter consecutive probe failures open a shard's circuit (≤0 =
	// 3); ReadmitAfter consecutive successes close it again (≤0 = 2).
	EjectAfter   int
	ReadmitAfter int
	// Logf, when non-nil, receives router event lines.
	Logf func(format string, args ...any)
}

// shardIdleConns is how many idle keep-alive connections the router keeps
// per shard. net/http's default is 2, so with more than two concurrent
// clients most answers would close their connection and the next burst
// would redial.
const shardIdleConns = 64

// probeTimeout bounds each probe and fan-out round trip.
const probeTimeout = 2 * time.Second

// maxBody caps a job body at dwsd's own limit.
const maxBody = 1 << 20

// Header keys in canonical form, so the submit path reads and writes them
// as map entries: Get and Set would re-canonicalise "X-DWS-…" (one
// allocation) on every call.
var (
	keyRejectReason = http.CanonicalHeaderKey(server.RejectReasonHeader)
	keyShard        = http.CanonicalHeaderKey("X-DWS-Shard")
	keySpills       = http.CanonicalHeaderKey("X-DWS-Spills")
	relayedHeaders  = [...]string{"Content-Type", "Retry-After", keyRejectReason}
)

// jobHeader is the header of every job offered to a shard. The transport
// only reads it, so all hops share the one map.
var jobHeader = http.Header{"Content-Type": {"application/json"}}

// Router is the HTTP front tier federating N dwsd shards.
type Router struct {
	cfg   Config
	spill string
	reg   *metrics.Registry
	mux   *http.ServeMux
	// transport makes every shard call: jobs and tenant deletes directly,
	// probes and the /v1/info and /v1/tenants fan-outs through
	// probeClient. Job calls skip http.Client: they follow no redirects
	// and carry no timeout (job deadlines bound them server-side).
	transport   http.RoundTripper
	probeClient *http.Client
	// spillsHeader[h] is the X-DWS-Spills value of an answer relayed after
	// h hops, shared read-only by every answer.
	spillsHeader [][]string

	mu       sync.Mutex
	ring     *Ring
	byName   map[string]*shard
	order    []*shard            // sorted by name: deterministic iteration everywhere
	placed   map[string][]*shard // tenant → placement order, until the tenant is released
	rng      *rand.Rand
	draining bool

	inflight  sync.WaitGroup
	stopProbe chan struct{}
	probeDone sync.WaitGroup

	mSpills    metrics.CounterVec   // {from,to,reason}
	mHealthy   metrics.GaugeVec     // {shard}
	mForwarded metrics.CounterVec   // {shard}
	m429       metrics.CounterVec   // {shard,reason}
	mErrors    metrics.CounterVec   // {shard}
	mAdmitLat  metrics.HistogramVec // {shard}
	mRefused   metrics.CounterVec   // {reason}: every shard refused the job
}

// New builds a router over the configured shards and starts the health
// prober. Shards start healthy and converge to probed truth within
// EjectAfter probe periods.
func New(cfg Config) (*Router, error) {
	if len(cfg.Shards) == 0 {
		return nil, errors.New("router: at least one shard is required")
	}
	if cfg.Spill == "" {
		cfg.Spill = SpillNext
	}
	switch cfg.Spill {
	case SpillNone, SpillRandom, SpillNext:
	default:
		return nil, fmt.Errorf("router: unknown spill policy %q (want none|random|next)", cfg.Spill)
	}
	if cfg.SpillBudget <= 0 {
		cfg.SpillBudget = 2
	}
	if cfg.ProbePeriod <= 0 {
		cfg.ProbePeriod = time.Second
	}
	if cfg.EjectAfter <= 0 {
		cfg.EjectAfter = 3
	}
	if cfg.ReadmitAfter <= 0 {
		cfg.ReadmitAfter = 2
	}

	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConns = 0 // no federation-wide cap: MaxIdleConnsPerHost bounds it
	tr.MaxIdleConnsPerHost = shardIdleConns
	tr.DisableCompression = true // shards never gzip; the Accept-Encoding header would cost a hop an allocation
	rt := &Router{
		cfg:         cfg,
		spill:       cfg.Spill,
		reg:         metrics.NewRegistry(),
		mux:         http.NewServeMux(),
		transport:   tr,
		probeClient: &http.Client{Transport: tr, Timeout: probeTimeout},
		ring:        NewRing(0, 0),
		byName:      map[string]*shard{},
		placed:      map[string][]*shard{},
		rng:         rand.New(rand.NewSource(time.Now().UnixNano())),
		stopProbe:   make(chan struct{}),
	}
	for _, spec := range cfg.Shards {
		if spec.Name == "" || spec.URL == "" {
			return nil, fmt.Errorf("router: shard needs a name and a URL (got %+v)", spec)
		}
		if rt.byName[spec.Name] != nil {
			return nil, fmt.Errorf("router: duplicate shard name %q", spec.Name)
		}
		s, err := newShard(spec)
		if err != nil {
			return nil, err
		}
		rt.byName[spec.Name] = s
		rt.order = append(rt.order, s)
		rt.ring.Add(spec.Name)
	}
	sort.Slice(rt.order, func(i, j int) bool { return rt.order[i].name < rt.order[j].name })
	for h := 0; h <= min(cfg.SpillBudget, len(rt.order)-1); h++ {
		rt.spillsHeader = append(rt.spillsHeader, []string{strconv.Itoa(h)})
	}

	rt.mSpills = rt.reg.NewCounter("dws_router_spills_total",
		"Jobs redirected between shards, by edge and refusal reason.", "from", "to", "reason")
	rt.mHealthy = rt.reg.NewGauge("dws_router_shard_healthy",
		"1 when the shard's circuit is closed (taking routed work).", "shard")
	rt.mForwarded = rt.reg.NewCounter("dws_router_forwarded_total",
		"Jobs whose final response came from this shard.", "shard")
	rt.m429 = rt.reg.NewCounter("dws_router_shard_429_total",
		"429 answers relayed or absorbed per shard, by reject reason.", "shard", "reason")
	rt.mErrors = rt.reg.NewCounter("dws_router_shard_errors_total",
		"Transport failures forwarding to the shard.", "shard")
	rt.mAdmitLat = rt.reg.NewHistogram("dws_router_admission_latency_seconds",
		"Time from router receipt to the final shard attempt starting (spill-hunt overhead).",
		metrics.ExpBuckets(0.0001, 4, 10), "shard")
	rt.mRefused = rt.reg.NewCounter("dws_router_all_refused_total",
		"Jobs every tried shard refused, by the home shard's reason.", "reason")
	rt.reg.OnScrape(func() {
		for _, s := range rt.order {
			v := 0.0
			if s.healthy() {
				v = 1
			}
			rt.mHealthy.With(s.name).Set(v)
		}
	})

	rt.mux.HandleFunc("POST /v1/jobs", rt.handleSubmit)
	rt.mux.HandleFunc("GET /v1/info", rt.handleInfo)
	rt.mux.HandleFunc("GET /v1/tenants", rt.handleTenants)
	rt.mux.HandleFunc("DELETE /v1/tenants/{name}", rt.handleDeleteTenant)
	rt.mux.HandleFunc("GET /v1/shards", rt.handleShards)
	rt.mux.HandleFunc("GET /healthz", rt.handleHealthz)
	rt.mux.Handle("GET /metrics", rt.reg.Handler())

	rt.probeDone.Add(1)
	go rt.probeLoop()
	return rt, nil
}

// Handler returns the router's HTTP mux.
func (rt *Router) Handler() http.Handler { return rt.mux }

// Metrics exposes the registry (tests scrape it without HTTP).
func (rt *Router) Metrics() *metrics.Registry { return rt.reg }

func (rt *Router) logf(format string, args ...any) {
	if rt.cfg.Logf != nil {
		rt.cfg.Logf(format, args...)
	}
}

// probeLoop drives the per-shard health probes until Shutdown.
func (rt *Router) probeLoop() {
	defer rt.probeDone.Done()
	tick := time.NewTicker(rt.cfg.ProbePeriod)
	defer tick.Stop()
	for {
		select {
		case <-rt.stopProbe:
			return
		case <-tick.C:
			rt.ProbeAll()
		}
	}
}

// ProbeAll probes every shard once, synchronously (the prober's tick body;
// exported so tests converge health state deterministically).
func (rt *Router) ProbeAll() {
	var wg sync.WaitGroup
	for _, s := range rt.order {
		s := s
		wg.Add(1)
		go func() {
			defer wg.Done()
			if s.probeOnce(rt.probeClient, rt.cfg.EjectAfter, rt.cfg.ReadmitAfter) {
				if s.healthy() {
					rt.logf("shard %s re-admitted", s.name)
				} else {
					rt.logf("shard %s ejected (consecutive probe failures)", s.name)
				}
			}
		}()
	}
	wg.Wait()
}

// Shutdown drains the router: new submits answer 503, the prober stops,
// and in-flight proxies get until ctx to finish.
func (rt *Router) Shutdown(ctx context.Context) error {
	rt.mu.Lock()
	if rt.draining {
		rt.mu.Unlock()
		return errors.New("router: already draining")
	}
	rt.draining = true
	rt.mu.Unlock()
	close(rt.stopProbe)
	rt.probeDone.Wait()
	done := make(chan struct{})
	go func() {
		rt.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		rt.probeClient.CloseIdleConnections()
		return nil
	case <-ctx.Done():
		return fmt.Errorf("router: drain incomplete: %w", ctx.Err())
	}
}

// placement returns the tenant's shard order: bounded-load sticky home
// first, then the ring walk — the spill-over preference sequence. Both
// halves are fixed until the tenant is released (the shard set never
// changes after New), so the order is built once per tenant and shared
// read-only by its jobs.
func (rt *Router) placement(tenant string) []*shard {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if order, ok := rt.placed[tenant]; ok {
		return order
	}
	home := rt.ring.Assign(tenant)
	order := make([]*shard, 0, len(rt.order))
	if s := rt.byName[home]; s != nil {
		order = append(order, s)
	}
	for _, name := range rt.ring.Preference(tenant) {
		if name == home {
			continue
		}
		if s := rt.byName[name]; s != nil {
			order = append(order, s)
		}
	}
	rt.placed[tenant] = order
	return order
}

// tried reports whether s already refused the job.
func tried(refusals []refusal, s *shard) bool {
	for _, rf := range refusals {
		if rf.shard == s {
			return true
		}
	}
	return false
}

// firstHealthy picks the first circuit-closed untried shard in order.
func firstHealthy(order []*shard, refusals []refusal) *shard {
	for _, s := range order {
		if !tried(refusals, s) && s.healthy() {
			return s
		}
	}
	return nil
}

// nextSpill picks the spill target under the configured policy.
func (rt *Router) nextSpill(order []*shard, refusals []refusal) *shard {
	switch rt.spill {
	case SpillNone:
		return nil
	case SpillNext:
		return firstHealthy(order, refusals)
	case SpillRandom:
		var cands []*shard
		for _, s := range order {
			if !tried(refusals, s) && s.healthy() {
				cands = append(cands, s)
			}
		}
		if len(cands) == 0 {
			return nil
		}
		rt.mu.Lock()
		defer rt.mu.Unlock()
		return cands[rt.rng.Intn(len(cands))]
	}
	return nil
}

// refusal records one shard's no.
type refusal struct {
	shard  *shard
	reason string
	retry  int // Retry-After seconds (0 = none offered)
}

// handleSubmit proxies one job: home shard first, spilling 429-refused
// work to healthy siblings within the budget, and merging an honest
// Retry-After when everyone says no.
func (rt *Router) handleSubmit(w http.ResponseWriter, r *http.Request) {
	rt.mu.Lock()
	if rt.draining {
		rt.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, "router is draining")
		return
	}
	rt.inflight.Add(1)
	rt.mu.Unlock()
	defer rt.inflight.Done()

	body, err := readBody(w, r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	// Placement needs only the tenant. The shard validates the rest, and
	// its 400 is relayed like any other answer.
	var req struct {
		Tenant string `json:"tenant"`
	}
	if err := json.Unmarshal(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, "invalid JSON: %v", err)
		return
	}
	if req.Tenant == "" {
		writeError(w, http.StatusBadRequest, "tenant is required")
		return
	}

	order := rt.placement(req.Tenant)
	start := time.Now()
	// The shards that refused are the shards visited, all but the current
	// one. The array holds the default budget's refusals without growing.
	var refused [4]refusal
	refusals := refused[:0]
	budget := rt.cfg.SpillBudget
	hops := 0
	// GetBody lets the transport replay the job on a fresh connection when
	// a kept-alive one turns out closed, as http.NewRequest would.
	getBody := func() (io.ReadCloser, error) { return jobBody(body), nil }

	cur := firstHealthy(order, nil)
	if cur == nil {
		writeError(w, http.StatusServiceUnavailable, "no healthy shard for tenant %q", req.Tenant)
		return
	}
	for {
		attemptAt := time.Now()
		resp, err := rt.forward(r.Context(), cur, body, getBody)
		reason := ""
		switch {
		case err != nil:
			if r.Context().Err() != nil {
				// The client went away (or its deadline passed): not the
				// shard's failure, nothing to relay, nowhere to spill.
				return
			}
			rt.mErrors.With(cur.name).Inc()
			reason = "unreachable"
			refusals = append(refusals, refusal{cur, reason, 0})
			if cur.markFailure(rt.cfg.EjectAfter) {
				rt.logf("shard %s ejected (forward failure: %v)", cur.name, err)
			}
		case resp.StatusCode == http.StatusTooManyRequests &&
			admit.SpillableReason(headerValue(resp.Header, keyRejectReason)):
			reason = headerValue(resp.Header, keyRejectReason)
			rt.m429.With(cur.name, reason).Inc()
			refusals = append(refusals, refusal{cur, reason, retrySeconds(resp)})
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		case resp.StatusCode == http.StatusServiceUnavailable:
			// Draining or out of tenant slots: shard-level unavailability,
			// worth a sibling even though it is not a 429.
			reason = "unavailable"
			refusals = append(refusals, refusal{cur, reason, retrySeconds(resp)})
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		default:
			// Terminal: success, early_reject, expiry, or a client error —
			// relay it as the shard said it.
			rt.mAdmitLat.With(cur.name).Observe(attemptAt.Sub(start).Seconds())
			rt.mForwarded.With(cur.name).Inc()
			if resp.StatusCode == http.StatusTooManyRequests {
				rt.m429.With(cur.name, headerValue(resp.Header, keyRejectReason)).Inc()
			}
			rt.relay(w, resp, cur, hops)
			return
		}

		if budget <= 0 {
			break
		}
		next := rt.nextSpill(order, refusals)
		if next == nil {
			break
		}
		budget--
		hops++
		rt.mSpills.With(cur.name, next.name, reason).Inc()
		if rt.cfg.Logf != nil { // boxing the arguments allocates even for a no-op logger
			rt.logf("spill %s→%s tenant=%s reason=%s", cur.name, next.name, req.Tenant, reason)
		}
		cur = next
	}
	rt.refuseAll(w, req.Tenant, refusals)
}

// readBody reads a job body of at most maxBody bytes. A declared length
// within the cap is read into one slice of exactly that size; any other
// body goes through MaxBytesReader, whose error the caller answers 400.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	n := r.ContentLength
	if n < 0 || n > maxBody {
		return io.ReadAll(http.MaxBytesReader(w, r.Body, maxBody))
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r.Body, body); err != nil {
		return nil, err
	}
	return body, nil
}

// jobBody is one hop's request body. Each hop gets its own reader, because
// the transport may still read or close a body after RoundTrip returns;
// the bytes are never written, so every hop shares them. It must stay a
// NopCloser around a *bytes.Reader: the transport recognises that as
// in-memory and writes headers and body in one go, where any other type
// costs a separate flush of the headers.
func jobBody(b []byte) io.ReadCloser { return io.NopCloser(bytes.NewReader(b)) }

// forward offers the job to one shard, straight through the transport.
// ctx is the client's request context, so a disconnect cancels the hop.
func (rt *Router) forward(ctx context.Context, s *shard, body []byte, getBody func() (io.ReadCloser, error)) (*http.Response, error) {
	req := (&http.Request{
		Method:        http.MethodPost,
		URL:           s.jobs,
		Header:        jobHeader,
		Body:          jobBody(body),
		GetBody:       getBody,
		ContentLength: int64(len(body)),
	}).WithContext(ctx)
	return rt.transport.RoundTrip(req)
}

// relay copies the shard's answer to the client, stamped with the serving
// shard and the spill hop count. Header values are relayed as the slices
// they arrived in (clipped, so an append elsewhere copies), and the stamps
// are slices shared read-only by every answer.
func (rt *Router) relay(w http.ResponseWriter, resp *http.Response, s *shard, hops int) {
	defer resp.Body.Close()
	h := w.Header()
	for _, k := range relayedHeaders {
		if v := resp.Header[k]; len(v) > 0 && v[0] != "" {
			h[k] = v[:1:1]
		}
	}
	h[keyShard] = s.nameHeader
	if hops > 0 {
		h[keySpills] = rt.spillsHeader[hops]
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

// headerValue is h.Get for a key already in canonical form.
func headerValue(h http.Header, key string) string {
	if v := h[key]; len(v) > 0 {
		return v[0]
	}
	return ""
}

// refuseAll answers a job every tried shard refused. The Retry-After is
// the MINIMUM over the shards' own hints — the soonest moment any shard
// expects to free capacity, which is the earliest retry that can possibly
// succeed (taking the max would overshoot whenever the least-loaded shard
// recovers first; taking the home's alone ignores the siblings the retry
// may spill to). The reject reason relayed is the home shard's: that is
// the verdict the tenant's sticky placement actually produced.
func (rt *Router) refuseAll(w http.ResponseWriter, tenant string, refusals []refusal) {
	reason, retry := "unavailable", 0
	sawBackpressure := false
	for _, rf := range refusals {
		if admit.SpillableReason(rf.reason) {
			if !sawBackpressure {
				reason = rf.reason // home-most 429-class verdict
				sawBackpressure = true
			}
			if rf.retry > 0 && (retry == 0 || rf.retry < retry) {
				retry = rf.retry
			}
		}
	}
	rt.mRefused.With(reason).Inc()
	if !sawBackpressure {
		writeError(w, http.StatusServiceUnavailable,
			"no shard accepted the job for tenant %q (%d tried, none reachable)", tenant, len(refusals))
		return
	}
	if retry <= 0 {
		retry = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(retry))
	w.Header().Set(server.RejectReasonHeader, reason)
	w.Header().Set("X-DWS-Spills", strconv.Itoa(maxInt(len(refusals)-1, 0)))
	writeError(w, http.StatusTooManyRequests,
		"all %d shards refused the job for tenant %q; retry in %ds", len(refusals), tenant, retry)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// retrySeconds parses the shard's Retry-After hint (0 when absent).
func retrySeconds(resp *http.Response) int {
	s := headerValue(resp.Header, "Retry-After")
	if s == "" {
		return 0 // Atoi would build an error to say so
	}
	v, err := strconv.Atoi(s)
	if err != nil || v < 0 {
		return 0
	}
	return v
}

// handleInfo aggregates healthy shards' /v1/info into one federation view.
func (rt *Router) handleInfo(w http.ResponseWriter, r *http.Request) {
	var agg Info
	rt.mu.Lock()
	agg.Spill = rt.spill
	rt.mu.Unlock()
	agg.SpillBudget = rt.cfg.SpillBudget
	agg.Shards = len(rt.order)
	first := true
	for _, s := range rt.order {
		if !s.healthy() {
			continue
		}
		var info server.Info
		if err := rt.getShard(r.Context(), s, "/v1/info", &info); err != nil {
			continue
		}
		agg.HealthyShards++
		if first {
			template := info
			template.Cores, template.MaxTenants, template.FreeSlots, template.GlobalQueue = 0, 0, 0, 0
			agg.Info = template
			first = false
		}
		agg.Cores += info.Cores
		agg.MaxTenants += info.MaxTenants
		agg.FreeSlots += info.FreeSlots
		agg.GlobalQueue += info.GlobalQueue
	}
	if first {
		writeError(w, http.StatusServiceUnavailable, "no healthy shard")
		return
	}
	writeJSON(w, http.StatusOK, agg)
}

// getShard GETs path from shard s and decodes its 200 answer into out.
func (rt *Router) getShard(ctx context.Context, s *shard, path string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.url+path, nil)
	if err != nil {
		return err
	}
	resp, err := rt.probeClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// handleTenants merges every healthy shard's tenant table. A tenant that
// spilled appears on several shards; rows merge by name with counters
// summed and the home shard's QoS echo kept (the home is where the ring
// assigns it, which is also where most of its traffic lands).
func (rt *Router) handleTenants(w http.ResponseWriter, r *http.Request) {
	merged := map[string]*server.TenantInfo{}
	var names []string
	for _, s := range rt.order {
		if !s.healthy() {
			continue
		}
		var rows []server.TenantInfo
		if err := rt.getShard(r.Context(), s, "/v1/tenants", &rows); err != nil {
			continue
		}
		for i := range rows {
			row := rows[i]
			m, ok := merged[row.Name]
			if !ok {
				cp := row
				merged[row.Name] = &cp
				names = append(names, row.Name)
				continue
			}
			m.QueueDepth += row.QueueDepth
			m.JobsServed += row.JobsServed
			m.Shed += row.Shed
			m.EarlyRejected += row.EarlyRejected
			if m.CoresHeld >= 0 && row.CoresHeld >= 0 {
				m.CoresHeld += row.CoresHeld
			}
		}
	}
	sort.Strings(names)
	out := make([]server.TenantInfo, 0, len(names))
	for _, n := range names {
		out = append(out, *merged[n])
	}
	writeJSON(w, http.StatusOK, out)
}

// handleDeleteTenant evicts the tenant everywhere (spilled jobs may have
// created it on siblings) and releases its ring assignment.
func (rt *Router) handleDeleteTenant(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	found := false
	for _, s := range rt.order {
		req, err := http.NewRequestWithContext(r.Context(), http.MethodDelete, s.url+"/v1/tenants/"+name, nil)
		if err != nil {
			continue
		}
		resp, err := rt.transport.RoundTrip(req)
		if err != nil {
			continue
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusNoContent {
			found = true
		}
	}
	rt.mu.Lock()
	rt.ring.Release(name)
	delete(rt.placed, name)
	rt.mu.Unlock()
	if !found {
		writeError(w, http.StatusNotFound, "tenant %q not found on any shard", name)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleShards reports the prober's live view.
func (rt *Router) handleShards(w http.ResponseWriter, _ *http.Request) {
	out := make([]ShardHealth, 0, len(rt.order))
	rt.mu.Lock()
	loads := map[string]int{}
	for _, s := range rt.order {
		loads[s.name] = rt.ring.Load(s.name)
	}
	rt.mu.Unlock()
	for _, s := range rt.order {
		s.mu.Lock()
		out = append(out, ShardHealth{
			Name:        s.name,
			URL:         s.url,
			Healthy:     !s.ejected,
			ProbeEWMAMs: s.latEWMA * 1e3,
			Backlog:     s.backlog,
			ConsecFails: s.consecFails,
			Probes:      s.probes,
			ProbeFails:  s.fails,
			LastError:   s.lastErr,
			Tenants:     loads[s.name],
		})
		s.mu.Unlock()
	}
	writeJSON(w, http.StatusOK, out)
}

func (rt *Router) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	rt.mu.Lock()
	draining := rt.draining
	rt.mu.Unlock()
	if draining {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ok")
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, server.ErrorResponse{Error: fmt.Sprintf(format, args...)})
}
