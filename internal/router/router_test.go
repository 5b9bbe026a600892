package router

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"dws/internal/server"
)

// fakeShard is a scriptable dwsd stand-in: answer /v1/jobs with a
// configured verdict, flip /healthz, count hits and connections.
type fakeShard struct {
	mu      sync.Mutex
	status  int           // /v1/jobs response code
	reason  string        // X-DWS-Reject-Reason on 429s
	retry   string        // Retry-After value
	delay   time.Duration // per-job service delay
	hold    chan struct{} // when set, jobs wait for it to close
	down    bool          // /healthz answers 503
	refuse  bool          // connection-level failure: close without answering
	hits    int
	conns   int     // connections the shard accepted
	backlog float64 // dws_global_queue_depth
	srv     *httptest.Server
}

func newFakeShard(t *testing.T) *fakeShard {
	t.Helper()
	f := &fakeShard{status: http.StatusOK}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		status, reason, retry, delay, refuse, hold := f.status, f.reason, f.retry, f.delay, f.refuse, f.hold
		f.hits++
		f.mu.Unlock()
		if refuse {
			panic(http.ErrAbortHandler)
		}
		// Like dwsd, refuse a body that is not a JobRequest.
		var req server.JobRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusBadRequest)
			json.NewEncoder(w).Encode(server.ErrorResponse{Error: "fake shard: " + err.Error()})
			return
		}
		if hold != nil {
			select {
			case <-hold:
			case <-r.Context().Done():
				return
			}
		}
		if delay > 0 {
			select {
			case <-time.After(delay):
			case <-r.Context().Done():
				return
			}
		}
		if retry != "" {
			w.Header().Set("Retry-After", retry)
		}
		if reason != "" {
			w.Header().Set(server.RejectReasonHeader, reason)
		}
		if status == http.StatusOK {
			json.NewEncoder(w).Encode(server.JobResult{Status: server.StatusOK})
			return
		}
		w.WriteHeader(status)
		json.NewEncoder(w).Encode(server.ErrorResponse{Error: "scripted"})
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		down := f.down
		f.mu.Unlock()
		if down {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		fmt.Fprintf(w, "dws_global_queue_depth %g\n", f.backlog)
		f.mu.Unlock()
	})
	mux.HandleFunc("GET /v1/info", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(server.Info{Policy: "DWS", Cores: 4, MaxTenants: 8, FreeSlots: 8})
	})
	f.srv = httptest.NewUnstartedServer(mux)
	f.srv.Config.ConnState = func(_ net.Conn, state http.ConnState) {
		if state == http.StateNew {
			f.mu.Lock()
			f.conns++
			f.mu.Unlock()
		}
	}
	f.srv.Start()
	t.Cleanup(f.srv.Close)
	return f
}

func (f *fakeShard) script(status int, reason, retry string) {
	f.mu.Lock()
	f.status, f.reason, f.retry = status, reason, retry
	f.mu.Unlock()
}

func (f *fakeShard) hitCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.hits
}

func (f *fakeShard) connCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.conns
}

// newTestRouter builds a router over the fakes with the prober idle (huge
// period; tests call ProbeAll explicitly).
func newTestRouter(t *testing.T, spill string, budget int, fakes ...*fakeShard) *Router {
	t.Helper()
	specs := make([]ShardSpec, len(fakes))
	for i, f := range fakes {
		specs[i] = ShardSpec{Name: fmt.Sprintf("s%d", i), URL: f.srv.URL}
	}
	rt, err := New(Config{
		Shards:       specs,
		Spill:        spill,
		SpillBudget:  budget,
		ProbePeriod:  time.Hour,
		EjectAfter:   2,
		ReadmitAfter: 2,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		rt.Shutdown(ctx)
	})
	return rt
}

func submit(t *testing.T, rt *Router, tenant string) *http.Response {
	t.Helper()
	body := strings.NewReader(fmt.Sprintf(`{"tenant":%q,"kernel":"FFT"}`, tenant))
	req := httptest.NewRequest(http.MethodPost, "/v1/jobs", body)
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, req)
	return rec.Result()
}

// homeIndex resolves which fake is the tenant's ring home.
func homeIndex(rt *Router, tenant string) int {
	order := rt.placement(tenant)
	var i int
	fmt.Sscanf(order[0].name, "s%d", &i)
	return i
}

func scrape(rt *Router) string {
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	return rec.Body.String()
}

// TestSpillOnOverload: the home shard answers 429/overload, the
// next-preferred sibling accepts, and the response carries the serving
// shard plus the hop count; the spill shows up in dws_router_spills_total.
func TestSpillOnOverload(t *testing.T) {
	fakes := []*fakeShard{newFakeShard(t), newFakeShard(t), newFakeShard(t)}
	rt := newTestRouter(t, SpillNext, 2, fakes...)
	home := homeIndex(rt, "tenant-a")
	fakes[home].script(http.StatusTooManyRequests, "overload", "3")

	resp := submit(t, rt, "tenant-a")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 via spill", resp.StatusCode)
	}
	if got := resp.Header.Get("X-DWS-Spills"); got != "1" {
		t.Errorf("X-DWS-Spills = %q, want 1", got)
	}
	if got := resp.Header.Get("X-DWS-Shard"); got == fmt.Sprintf("s%d", home) {
		t.Errorf("served by the refusing home %s", got)
	}
	if !strings.Contains(scrape(rt), `dws_router_spills_total{from="s`+fmt.Sprint(home)) {
		t.Error("spill not accounted in dws_router_spills_total")
	}
}

// TestEarlyRejectNotSpilled: an early_reject 429 relays to the client
// untouched — no sibling is tried.
func TestEarlyRejectNotSpilled(t *testing.T) {
	fakes := []*fakeShard{newFakeShard(t), newFakeShard(t)}
	rt := newTestRouter(t, SpillNext, 2, fakes...)
	home := homeIndex(rt, "tenant-b")
	fakes[home].script(http.StatusTooManyRequests, "early_reject", "2")

	resp := submit(t, rt, "tenant-b")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 relayed", resp.StatusCode)
	}
	if got := resp.Header.Get(server.RejectReasonHeader); got != "early_reject" {
		t.Errorf("reason %q, want early_reject", got)
	}
	if fakes[1-home].hitCount() != 0 {
		t.Error("early_reject was spilled to the sibling")
	}
}

// TestAllRefuseMergesRetryAfter: every shard refuses; the router answers
// 429 with the MINIMUM Retry-After across shards and the home's reason.
func TestAllRefuseMergesRetryAfter(t *testing.T) {
	fakes := []*fakeShard{newFakeShard(t), newFakeShard(t), newFakeShard(t)}
	rt := newTestRouter(t, SpillNext, 3, fakes...)
	home := homeIndex(rt, "tenant-c")
	retries := []string{"9", "4", "7"}
	for i, f := range fakes {
		reason := "queue_full"
		if i == home {
			reason = "overload"
		}
		f.script(http.StatusTooManyRequests, reason, retries[i])
	}

	resp := submit(t, rt, "tenant-c")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "4" {
		t.Errorf("merged Retry-After = %q, want the minimum 4", got)
	}
	if got := resp.Header.Get(server.RejectReasonHeader); got != "overload" {
		t.Errorf("reason %q, want the home's overload", got)
	}
	for i, f := range fakes {
		if f.hitCount() != 1 {
			t.Errorf("shard s%d tried %d times, want 1", i, f.hitCount())
		}
	}
}

// TestSpillBudgetBounds: with budget 1, at most two shards ever see the
// job no matter how many refuse.
func TestSpillBudgetBounds(t *testing.T) {
	fakes := []*fakeShard{newFakeShard(t), newFakeShard(t), newFakeShard(t)}
	rt := newTestRouter(t, SpillNext, 1, fakes...)
	for _, f := range fakes {
		f.script(http.StatusTooManyRequests, "queue_full", "1")
	}
	resp := submit(t, rt, "tenant-d")
	resp.Body.Close()
	total := 0
	for _, f := range fakes {
		total += f.hitCount()
	}
	if total != 2 {
		t.Fatalf("%d shard attempts with budget 1, want 2", total)
	}
}

// TestSpillNonePolicy: the no-spill policy forwards the refusal directly.
func TestSpillNonePolicy(t *testing.T) {
	fakes := []*fakeShard{newFakeShard(t), newFakeShard(t)}
	rt := newTestRouter(t, SpillNone, 2, fakes...)
	home := homeIndex(rt, "tenant-e")
	fakes[home].script(http.StatusTooManyRequests, "overload", "2")
	resp := submit(t, rt, "tenant-e")
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if fakes[1-home].hitCount() != 0 {
		t.Error("no-spill policy still spilled")
	}
}

// TestHealthEjectionAndReadmission walks the circuit breaker: EjectAfter
// failed probes open it (placement avoids the shard), ReadmitAfter
// successes close it again.
func TestHealthEjectionAndReadmission(t *testing.T) {
	fakes := []*fakeShard{newFakeShard(t), newFakeShard(t)}
	rt := newTestRouter(t, SpillNext, 2, fakes...)
	home := homeIndex(rt, "tenant-f")

	fakes[home].mu.Lock()
	fakes[home].down = true
	fakes[home].mu.Unlock()
	rt.ProbeAll()
	rt.ProbeAll() // EjectAfter = 2
	if rt.byName[fmt.Sprintf("s%d", home)].healthy() {
		t.Fatal("home still healthy after EjectAfter failed probes")
	}
	// Routed around: the sick home never sees the job, no spill counted
	// (health-aware re-homing is routing, not spill-over).
	resp := submit(t, rt, "tenant-f")
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 from the healthy sibling", resp.StatusCode)
	}
	if fakes[home].hitCount() != 0 {
		t.Error("ejected shard still received the job")
	}
	if strings.Contains(scrape(rt), "dws_router_spills_total") {
		t.Error("re-homing around an ejected shard was counted as a spill")
	}

	fakes[home].mu.Lock()
	fakes[home].down = false
	fakes[home].mu.Unlock()
	rt.ProbeAll()
	if rt.byName[fmt.Sprintf("s%d", home)].healthy() {
		t.Fatal("half-open shard re-admitted after one success (ReadmitAfter = 2)")
	}
	rt.ProbeAll()
	if !rt.byName[fmt.Sprintf("s%d", home)].healthy() {
		t.Fatal("shard not re-admitted after ReadmitAfter successes")
	}
}

// TestDrainWaitsForInflight: Shutdown answers new jobs 503 but lets the
// in-flight proxy finish.
func TestDrainWaitsForInflight(t *testing.T) {
	f := newFakeShard(t)
	f.mu.Lock()
	f.delay = 200 * time.Millisecond
	f.mu.Unlock()
	rt, err := New(Config{
		Shards:      []ShardSpec{{Name: "s0", URL: f.srv.URL}},
		ProbePeriod: time.Hour,
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}

	codes := make(chan int, 1)
	go func() {
		resp := submit(t, rt, "tenant-g")
		resp.Body.Close()
		codes <- resp.StatusCode
	}()
	time.Sleep(50 * time.Millisecond) // the job is in flight on the slow shard

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := rt.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if got := <-codes; got != http.StatusOK {
		t.Fatalf("in-flight job answered %d across drain, want 200", got)
	}
	resp := submit(t, rt, "tenant-g")
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain submit answered %d, want 503", resp.StatusCode)
	}
}

// TestShardsEndpoint: /v1/shards reports health, backlog, and ring loads.
func TestShardsEndpoint(t *testing.T) {
	fakes := []*fakeShard{newFakeShard(t), newFakeShard(t)}
	fakes[0].mu.Lock()
	fakes[0].backlog = 7
	fakes[0].mu.Unlock()
	rt := newTestRouter(t, SpillNext, 2, fakes...)
	rt.ProbeAll()
	rt.placement("tenant-h") // assign someone

	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/shards", nil))
	var rows []ShardHealth
	if err := json.NewDecoder(rec.Body).Decode(&rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d shard rows, want 2", len(rows))
	}
	tenants := 0
	for _, r := range rows {
		if !r.Healthy {
			t.Errorf("shard %s unhealthy after a clean probe", r.Name)
		}
		if r.Name == "s0" && r.Backlog != 7 {
			t.Errorf("s0 backlog %g, want the scraped 7", r.Backlog)
		}
		tenants += r.Tenants
	}
	if tenants != 1 {
		t.Errorf("ring reports %d assigned tenants, want 1", tenants)
	}
}

// TestInfoAggregates: /v1/info sums capacity over healthy shards and
// advertises the federation shape.
func TestInfoAggregates(t *testing.T) {
	fakes := []*fakeShard{newFakeShard(t), newFakeShard(t), newFakeShard(t)}
	rt := newTestRouter(t, SpillNext, 2, fakes...)
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/info", nil))
	var info Info
	if err := json.NewDecoder(rec.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	if info.Cores != 12 { // 3 fakes × 4 cores
		t.Errorf("aggregate cores %d, want 12", info.Cores)
	}
	if info.Shards != 3 || info.HealthyShards != 3 {
		t.Errorf("shards %d/%d, want 3/3", info.HealthyShards, info.Shards)
	}
	if info.Spill != SpillNext {
		t.Errorf("spill %q, want next", info.Spill)
	}
	if info.Policy != "DWS" {
		t.Errorf("policy %q not taken from shard template", info.Policy)
	}
}

// TestUnreachableShardSpillsAndEjects: a connection-refused forward spills
// to a sibling and, after EjectAfter failures, opens the circuit without
// waiting for the prober tick.
func TestUnreachableShardSpillsAndEjects(t *testing.T) {
	fakes := []*fakeShard{newFakeShard(t), newFakeShard(t)}
	rt := newTestRouter(t, SpillNext, 2, fakes...)
	home := homeIndex(rt, "tenant-i")
	fakes[home].srv.Close() // hard down: connection refused

	for i := 0; i < 2; i++ { // EjectAfter = 2 data-path failures
		resp := submit(t, rt, "tenant-i")
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("attempt %d: status %d, want 200 via spill", i, resp.StatusCode)
		}
	}
	if rt.byName[fmt.Sprintf("s%d", home)].healthy() {
		t.Fatal("unreachable shard not ejected by data-path failures")
	}
	// Ejected now: next job routes straight to the sibling, zero errors.
	before := fakes[1-home].hitCount()
	resp := submit(t, rt, "tenant-i")
	resp.Body.Close()
	if fakes[1-home].hitCount() != before+1 {
		t.Error("job did not route to the healthy sibling")
	}
	if !strings.Contains(scrape(rt), `reason="unreachable"`) {
		t.Error("unreachable spill not labelled in metrics")
	}
}

// TestRelayPreservesBody: a 200 relays the shard's JSON result intact.
func TestRelayPreservesBody(t *testing.T) {
	f := newFakeShard(t)
	rt := newTestRouter(t, SpillNext, 2, f)
	resp := submit(t, rt, "tenant-j")
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	var res server.JobResult
	if err := json.Unmarshal(b, &res); err != nil {
		t.Fatalf("relayed body is not the shard's JobResult: %v (%s)", err, b)
	}
	if res.Status != server.StatusOK {
		t.Errorf("status %q, want ok", res.Status)
	}
}
