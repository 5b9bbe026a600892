package server

import (
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dws/internal/admit"
	"dws/internal/rt"
)

// TestShedOverHTTP drives the shed path end to end: a bronze tenant
// fills the global backlog cap, a weight-2 gold arrival displaces
// bronze's newest queued job, and that job's blocked submit answers 429
// with Retry-After, the shed reason header, and a "shed" result status —
// while the gold job is served.
func TestShedOverHTTP(t *testing.T) {
	s, hs := newTestServer(t, Config{
		Cores: 2, Policy: rt.DWS, MaxTenants: 2,
		QueueDepth: 4, GlobalQueueDepth: 4,
	})

	// One long bronze job pins bronze's turn; four more fill its queue
	// to the global cap.
	type reply struct {
		code   int
		retry  string
		reason string
		status string
	}
	replies := make(chan reply, 5)
	var wg sync.WaitGroup
	for i := 0; i < 5; i++ {
		size := 0.05
		if i == 0 {
			size = 1.0 // the pin
		}
		wg.Add(1)
		go func(size float64) {
			defer wg.Done()
			resp, res := submit(t, hs.URL, JobRequest{Tenant: "bronze", Kernel: "Mergesort", Size: size})
			replies <- reply{resp.StatusCode, resp.Header.Get("Retry-After"),
				resp.Header.Get(RejectReasonHeader), res.Status}
		}(size)
		if i == 0 {
			waitUntil(t, "the pin runs", func() bool {
				tl := s.tenantList()
				return len(tl) == 1 && tl[0].inFlight.Load()
			})
		}
	}
	// Wait until bronze's backlog is at the cap.
	deadline := time.Now().Add(10 * time.Second)
	for {
		var tenants []TenantInfo
		getJSON(t, hs.URL+"/v1/tenants", &tenants)
		if len(tenants) == 1 && tenants[0].QueueDepth == 4 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("bronze backlog never reached the cap: %+v", tenants)
		}
		time.Sleep(2 * time.Millisecond)
	}

	// The gold arrival sheds bronze's newest queued job and is served on
	// gold's own program immediately.
	resp, res := submit(t, hs.URL, JobRequest{
		Tenant: "gold", Kernel: "FFT", Size: 0.02, Weight: 2,
	})
	if resp.StatusCode != http.StatusOK || res.Status != StatusOK {
		t.Fatalf("gold at global cap: status %d res %q, want 200/ok (shed should make room)",
			resp.StatusCode, res.Status)
	}

	wg.Wait()
	close(replies)
	shed := 0
	for r := range replies {
		if r.code != http.StatusTooManyRequests {
			continue
		}
		shed++
		if r.reason != admit.Shed.String() {
			t.Errorf("shed reply reason %q, want %q", r.reason, admit.Shed.String())
		}
		if r.retry == "" {
			t.Error("shed reply without Retry-After")
		}
		if r.status != StatusShed {
			t.Errorf("shed reply result status %q, want %q", r.status, StatusShed)
		}
	}
	if shed != 1 {
		t.Errorf("shed replies = %d, want exactly 1 (one gold arrival, one victim)", shed)
	}

	var tenants []TenantInfo
	getJSON(t, hs.URL+"/v1/tenants", &tenants)
	byName := map[string]TenantInfo{}
	for _, ti := range tenants {
		byName[ti.Name] = ti
	}
	if byName["bronze"].Shed != 1 {
		t.Errorf("bronze shed counter = %d, want 1", byName["bronze"].Shed)
	}
	if byName["gold"].Shed != 0 {
		t.Errorf("gold shed counter = %d, want 0", byName["gold"].Shed)
	}
}

// TestOverloadSaturationGoldProtected is the saturation battery: the
// server is driven well past capacity by two weight-1 bronze tenants
// while a weight-2 gold tenant submits a steady trickle. The gold
// tenant's ok-rate under saturation must stay within 5% of its
// unsaturated baseline (here: lose nothing), every shed lands on
// bronze, and bronze demonstrably absorbs rejections. The gold p95 is
// logged for the EXPERIMENTS.md study; on a shared-CPU CI host only the
// ok-rate contract is asserted tightly.
func TestOverloadSaturationGoldProtected(t *testing.T) {
	if testing.Short() {
		t.Skip("saturation battery is slow")
	}
	// 24, so that one refused job (0.958) is inside the 5 % the contract
	// allows.
	const goldJobs = 24
	goldPhase := func(hs string) (ok int, p95 time.Duration) {
		lats := make([]time.Duration, 0, goldJobs)
		for i := 0; i < goldJobs; i++ {
			start := time.Now()
			resp, res := submit(t, hs, JobRequest{
				Tenant: "gold", Kernel: "FFT", Size: 0.02,
				Weight: 2, DeadlineMS: 20_000,
			})
			if resp.StatusCode == http.StatusOK && res.Status == StatusOK {
				ok++
				lats = append(lats, time.Since(start))
			} else {
				t.Logf("gold job %d: HTTP %d, status %q, reason %q", i,
					resp.StatusCode, res.Status, resp.Header.Get(RejectReasonHeader))
				// A refusal returns in microseconds; without a pause every
				// remaining job samples the same instant's backlog.
				time.Sleep(5 * time.Millisecond)
			}
		}
		if len(lats) > 0 {
			sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
			p95 = lats[(len(lats)*95)/100]
		}
		return ok, p95
	}

	cfg := Config{
		Cores: 3, Policy: rt.DWS, MaxTenants: 3,
		QueueDepth: 6, GlobalQueueDepth: 8,
	}

	// Phase A — unsaturated baseline: gold alone.
	_, hsA := newTestServer(t, cfg)
	okUnsat, p95Unsat := goldPhase(hsA.URL)
	if okUnsat == 0 {
		t.Fatal("unsaturated gold served nothing; cannot baseline")
	}

	// Phase B — saturated: two bronze tenants blast concurrent heavy jobs
	// (far beyond the global cap) while gold submits the same trickle.
	_, hsB := newTestServer(t, cfg)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var bronzeRejected [2]atomic.Int64
	for b := 0; b < 2; b++ {
		name := []string{"bronze1", "bronze2"}[b]
		for w := 0; w < 8; w++ { // 8 concurrent submitters per bronze
			wg.Add(1)
			go func(b int, name string) {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					// Size 1.0 is a 2¹⁸-point transform, 32× gold's: on a
					// host with fewer CPUs than core slots gold's run time
					// is mostly waiting for a CPU (its p95 goes 2 → 30–160 ms
					// here), and its WFQ cost is that run time. Bronze must
					// cost more still, or gold's would-be tag passes the
					// bronze tail and gold is the one refused (at size 0.08,
					// 1 run in 5 on a 2-CPU host).
					resp, _ := submit(t, hsB.URL, JobRequest{
						Tenant: name, Kernel: "FFT", Size: 1.0,
						Weight: 1, DeadlineMS: 20_000,
					})
					if resp.StatusCode == http.StatusTooManyRequests {
						bronzeRejected[b].Add(1)
					}
				}
			}(b, name)
		}
	}
	// Let the bronzes saturate the backlog before gold starts.
	deadline := time.Now().Add(10 * time.Second)
	for {
		var tenants []TenantInfo
		getJSON(t, hsB.URL+"/v1/tenants", &tenants)
		total := 0
		for _, ti := range tenants {
			total += ti.QueueDepth
		}
		if total >= cfg.GlobalQueueDepth {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("bronze load never saturated the global backlog")
		}
		time.Sleep(5 * time.Millisecond)
	}
	okSat, p95Sat := goldPhase(hsB.URL)
	close(stop)
	wg.Wait()

	rateUnsat := float64(okUnsat) / goldJobs
	rateSat := float64(okSat) / goldJobs
	t.Logf("gold ok-rate: unsaturated %.2f, saturated %.2f; p95: %v → %v",
		rateUnsat, rateSat, p95Unsat, p95Sat)
	if rateSat < 0.95*rateUnsat {
		t.Errorf("gold ok-rate degraded past 5%%: %.3f vs %.3f unsaturated", rateSat, rateUnsat)
	}

	var tenants []TenantInfo
	getJSON(t, hsB.URL+"/v1/tenants", &tenants)
	byName := map[string]TenantInfo{}
	for _, ti := range tenants {
		byName[ti.Name] = ti
	}
	if byName["gold"].Shed != 0 {
		t.Errorf("gold had %d jobs shed; shedding must land on bronze", byName["gold"].Shed)
	}
	bronzeShed := byName["bronze1"].Shed + byName["bronze2"].Shed
	bronzePressure := bronzeShed + bronzeRejected[0].Load() + bronzeRejected[1].Load()
	if bronzePressure == 0 {
		t.Error("bronze saw no shed or rejection under 2x overload; the server was never saturated")
	}
}
