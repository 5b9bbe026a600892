package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"dws/internal/rt"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s, hs
}

func submit(t *testing.T, url string, req JobRequest) (*http.Response, JobResult) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var res JobResult
	raw, _ := io.ReadAll(resp.Body)
	_ = json.Unmarshal(raw, &res)
	return resp, res
}

func TestServeTwoTenants(t *testing.T) {
	for _, pol := range []rt.Policy{rt.ABP, rt.DWS} {
		t.Run(pol.String(), func(t *testing.T) {
			s, hs := newTestServer(t, Config{Cores: 4, Policy: pol, MaxTenants: 2})
			var wg sync.WaitGroup
			for _, tn := range []struct{ tenant, kernel string }{
				{"alice", "FFT"}, {"bob", "Mergesort"},
			} {
				for i := 0; i < 3; i++ {
					wg.Add(1)
					go func(tenant, kernel string) {
						defer wg.Done()
						resp, res := submit(t, hs.URL, JobRequest{
							Tenant: tenant, Kernel: kernel, Size: 0.02,
						})
						if resp.StatusCode != http.StatusOK {
							t.Errorf("%s: status %d", tenant, resp.StatusCode)
							return
						}
						if res.Status != StatusOK || res.Policy != pol.String() ||
							res.Stats.Runs != 1 || res.TotalMS < res.RunMS {
							t.Errorf("%s: bad result %+v", tenant, res)
						}
					}(tn.tenant, tn.kernel)
				}
			}
			wg.Wait()
			if free := s.System().FreeSlots(); free != 0 {
				t.Errorf("FreeSlots = %d, want 0 (two live tenants)", free)
			}
		})
	}
}

func TestAdmissionBackpressure(t *testing.T) {
	// One tenant, queue depth 1: eight simultaneous slow jobs can only
	// have one running and one queued — the rest must get 429 +
	// Retry-After, not queue unboundedly.
	_, hs := newTestServer(t, Config{Cores: 2, Policy: rt.DWS, MaxTenants: 1, QueueDepth: 1})

	release := make(chan struct{})
	var wg sync.WaitGroup
	codes := make([]int, 8)
	retryAfters := make([]string, 8)
	for i := range codes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-release
			resp, _ := submit(t, hs.URL, JobRequest{Tenant: "a", Kernel: "Mergesort", Size: 1.0})
			codes[i] = resp.StatusCode
			retryAfters[i] = resp.Header.Get("Retry-After")
		}(i)
	}
	close(release)
	wg.Wait()

	ok, rejected := 0, 0
	for i, code := range codes {
		switch code {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			rejected++
			if retryAfters[i] == "" {
				t.Error("429 without a Retry-After header")
			}
		default:
			t.Errorf("unexpected status %d", code)
		}
	}
	if ok == 0 || rejected == 0 {
		t.Fatalf("want both served and rejected jobs, got ok=%d rejected=%d", ok, rejected)
	}
	// running + queued = 2 at any instant; a small allowance covers a
	// straggler goroutine arriving after the first job finished.
	if ok > 4 {
		t.Errorf("admitted %d of 8 simultaneous jobs; the bounded queue should cap this near 2", ok)
	}
}

func TestQueuedJobDeadline(t *testing.T) {
	s, hs := newTestServer(t, Config{Cores: 2, Policy: rt.DWS, MaxTenants: 1, QueueDepth: 4})
	// Pin the tenant with a long job, then submit one with a deadline too
	// short to ever leave the queue.
	long := make(chan struct{})
	go func() {
		defer close(long)
		submit(t, hs.URL, JobRequest{Tenant: "a", Kernel: "Mergesort", Size: 1.0})
	}()
	waitUntil(t, "the long job runs", func() bool {
		tl := s.tenantList()
		return len(tl) == 1 && tl[0].inFlight.Load()
	})
	resp, _ := submit(t, hs.URL, JobRequest{
		Tenant: "a", Kernel: "FFT", Size: 0.02, DeadlineMS: 1,
	})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Errorf("deadline-expired job: status %d, want 504", resp.StatusCode)
	}
	<-long
}

func TestBadRequests(t *testing.T) {
	_, hs := newTestServer(t, Config{Cores: 2, Policy: rt.DWS})
	cases := []JobRequest{
		{Tenant: "a", Kernel: "NoSuchKernel"},
		{Tenant: "bad tenant name!", Kernel: "FFT"},
		{Tenant: "a", Kernel: "FFT", Size: 99},
	}
	for _, req := range cases {
		resp, _ := submit(t, hs.URL, req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%+v: status %d, want 400", req, resp.StatusCode)
		}
	}
}

func TestTenantChurnThroughAPI(t *testing.T) {
	// With a single slot, a second tenant is rejected until the first is
	// deleted — and deletion frees the slot (the rt fix this PR rides on).
	_, hs := newTestServer(t, Config{Cores: 2, Policy: rt.DWS, MaxTenants: 1})
	if resp, _ := submit(t, hs.URL, JobRequest{Tenant: "a", Kernel: "FFT", Size: 0.02}); resp.StatusCode != http.StatusOK {
		t.Fatalf("tenant a: status %d", resp.StatusCode)
	}
	if resp, _ := submit(t, hs.URL, JobRequest{Tenant: "b", Kernel: "FFT", Size: 0.02}); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("tenant b with full slots: status %d, want 503", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodDelete, hs.URL+"/v1/tenants/a", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete tenant a: status %d, want 204", resp.StatusCode)
	}
	if resp, res := submit(t, hs.URL, JobRequest{Tenant: "b", Kernel: "FFT", Size: 0.02}); resp.StatusCode != http.StatusOK || res.Status != StatusOK {
		t.Fatalf("tenant b after slot freed: status %d res %+v", resp.StatusCode, res)
	}
}

func TestInfoTenantsMetricsHealth(t *testing.T) {
	_, hs := newTestServer(t, Config{Cores: 4, Policy: rt.DWS, MaxTenants: 2})
	submit(t, hs.URL, JobRequest{Tenant: "alice", Kernel: "SOR", Size: 0.02})

	var info Info
	getJSON(t, hs.URL+"/v1/info", &info)
	if info.Policy != "DWS" || info.Cores != 4 || len(info.Kernels) != 11 {
		t.Errorf("bad info %+v", info)
	}

	var tenants []TenantInfo
	getJSON(t, hs.URL+"/v1/tenants", &tenants)
	if len(tenants) != 1 || tenants[0].Name != "alice" ||
		tenants[0].JobsServed != 1 || tenants[0].Stats.Runs != 1 {
		t.Errorf("bad tenants %+v", tenants)
	}
	if tenants[0].CoresHeld < 0 {
		t.Errorf("DWS tenant should report cores held, got %d", tenants[0].CoresHeld)
	}

	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		`dws_jobs_total{tenant="alice",kernel="SOR",status="ok"} 1`,
		`dws_job_latency_seconds_count{tenant="alice",kernel="SOR"} 1`,
		`dws_queue_depth{tenant="alice"} 0`,
		`dws_program_runs{tenant="alice"} 1`,
		`dws_core_occupant{core="0"}`,
		"dws_free_tenant_slots 1",
		`dws_build_info{policy="DWS",go="` + runtime.Version() + `"} 1`,
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	resp, err = http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz = %d, want 200", resp.StatusCode)
	}
}

func TestGracefulDrain(t *testing.T) {
	s, err := New(Config{Cores: 2, Policy: rt.DWS, MaxTenants: 2, QueueDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	// Admit a few jobs, then shut down while some may still be queued:
	// every admitted job must complete (status ok), and post-drain
	// submissions and health checks must say 503.
	var wg sync.WaitGroup
	codes := make([]int, 4)
	for i := range codes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, res := submit(t, hs.URL, JobRequest{Tenant: fmt.Sprintf("t%d", i%2), Kernel: "Heat", Size: 0.1})
			codes[i] = resp.StatusCode
			if resp.StatusCode == http.StatusOK && res.Status != StatusOK {
				t.Errorf("admitted job finished %q", res.Status)
			}
		}(i)
	}
	waitUntil(t, "all four jobs are admitted", func() bool {
		admitted := 0
		for _, tn := range s.tenantList() {
			admitted += int(tn.jobsServed.Load()) + tn.queueLen()
			if tn.inFlight.Load() {
				admitted++
			}
		}
		return admitted == len(codes)
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	wg.Wait()
	served := 0
	for i, code := range codes {
		switch code {
		case http.StatusOK:
			served++
		case http.StatusServiceUnavailable:
			// A straggler submission that raced past the drain start is
			// rejected up front — acceptable; it must not be half-served.
		default:
			t.Errorf("job %d: status %d (admitted work must drain; late work gets 503)", i, code)
		}
	}
	if served == 0 {
		t.Error("no admitted job survived the drain")
	}

	resp, _ := submit(t, hs.URL, JobRequest{Tenant: "late", Kernel: "FFT", Size: 0.02})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-drain submit: status %d, want 503", resp.StatusCode)
	}
	hresp, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, hresp.Body)
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-drain healthz: status %d, want 503", hresp.StatusCode)
	}
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}
