package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"dws/internal/rt"
)

// waitUntil polls cond until it holds, failing the test after 10 s.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
	}
}

// hold marks tn busy, as a job holding the tenant's turn does; the test
// then plays that job's handler and lets go with s.adm.release(tn).
func hold(s *Server, tn *tenant) {
	s.adm.mu.Lock()
	tn.busy = true
	s.adm.mu.Unlock()
}

// sendAsync submits req on a goroutine of its own and returns a function
// that waits for its answer.
func sendAsync(t *testing.T, url string, req JobRequest) func() (int, JobResult) {
	type answer struct {
		code int
		res  JobResult
	}
	answered := make(chan answer, 1)
	go func() {
		resp, res := submit(t, url, req)
		answered <- answer{resp.StatusCode, res}
	}()
	return func() (int, JobResult) {
		a := <-answered
		return a.code, a.res
	}
}

// TestNoGoroutinePerTenant: a tenant costs the goroutines of its program
// and nothing more, however many jobs it serves, and deleting the
// tenants returns the process to its baseline.
func TestNoGoroutinePerTenant(t *testing.T) {
	s, hs := newTestServer(t, Config{Cores: 3, Policy: rt.DWS, MaxTenants: 3})
	// Idle keep-alive connections hold goroutines on both ends, so each
	// count closes them first (and waits out their exit by polling).
	count := func() int {
		http.DefaultClient.CloseIdleConnections()
		return runtime.NumGoroutine()
	}
	base := count()
	probe, err := s.System().NewProgram("probe")
	if err != nil {
		t.Fatal(err)
	}
	perProgram := count() - base
	probe.Close()

	tenants := []string{"a", "b", "c"}
	for i := 0; i < 100; i++ {
		resp, res := submit(t, hs.URL, JobRequest{Tenant: tenants[i%len(tenants)], Kernel: "Cholesky", Size: 0.001})
		if resp.StatusCode != http.StatusOK || res.Status != StatusOK || res.Stats.Runs != 1 {
			t.Fatalf("job %d: status %d, result %+v", i, resp.StatusCode, res)
		}
	}
	waitUntil(t, "only the programs' goroutines are left", func() bool {
		return count() <= base+len(tenants)*perProgram
	})
	for _, name := range tenants {
		req, _ := http.NewRequest(http.MethodDelete, hs.URL+"/v1/tenants/"+name, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNoContent {
			t.Fatalf("DELETE %s: status %d, want 204", name, resp.StatusCode)
		}
	}
	waitUntil(t, "the goroutine count is back at its baseline", func() bool { return count() <= base })
}

// TestBacklogKeepsArrivalOrder: while a serve holds the tenant, later
// jobs queue; when it lets go they are served in the order they arrived,
// and a job arriving behind backlog joins it rather than being served
// ahead of it.
func TestBacklogKeepsArrivalOrder(t *testing.T) {
	s, err := New(Config{Cores: 2, Policy: rt.DWS, MaxTenants: 1, QueueDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	// A job started at its admission plus its queue wait; the wrapper
	// stamps the admission from outside (a few µs early), and the served
	// jobs are milliseconds apart.
	var mu sync.Mutex
	started := map[uint64]time.Time{}
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		arrived := time.Now()
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, r)
		var res JobResult
		if json.Unmarshal(rec.Body.Bytes(), &res) == nil && res.ID != 0 {
			mu.Lock()
			started[res.ID] = arrived.Add(time.Duration(res.QueueMS * float64(time.Millisecond)))
			mu.Unlock()
		}
		for k, v := range rec.Header() {
			w.Header()[k] = v
		}
		w.WriteHeader(rec.Code)
		w.Write(rec.Body.Bytes())
	}))
	t.Cleanup(func() {
		hs.Close()
		_ = s.Shutdown(context.Background())
	})
	if resp, _ := submit(t, hs.URL, JobRequest{Tenant: "a", Kernel: "FFT", Size: 0.02}); resp.StatusCode != http.StatusOK {
		t.Fatalf("creating tenant a: status %d", resp.StatusCode)
	}
	tn := s.tenantList()[0]

	const n = 6
	ids := make([]uint64, n)
	var wg sync.WaitGroup
	send := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, res := submit(t, hs.URL, JobRequest{Tenant: "a", Kernel: "FFT", Size: 0.2})
			if resp.StatusCode != http.StatusOK || res.Status != StatusOK {
				t.Errorf("queued job %d: status %d, result %+v", i, resp.StatusCode, res)
			}
			ids[i] = res.ID
		}()
	}
	hold(s, tn)
	for i := 0; i < n-1; i++ {
		send(i)
		waitUntil(t, "the job is queued", func() bool { return tn.queueLen() == i+1 })
	}
	// Let go as a serve does: the turn passes down the backlog while the
	// last job arrives, and that one must queue behind it.
	s.adm.release(tn)
	send(n - 1)
	wg.Wait()

	got := append([]uint64(nil), ids...)
	mu.Lock()
	sort.Slice(got, func(i, k int) bool { return started[got[i]].Before(started[got[k]]) })
	mu.Unlock()
	for i := range got {
		if got[i] != ids[i] {
			t.Fatalf("served in order %v, want arrival order %v", got, ids)
		}
	}
}

// TestTeardownDuringInlineServe: deleting the tenant, draining the
// server, or evicting the tenant while its job runs on the submitting
// handler lets the job finish and answer, then closes the program once
// and frees its slot. Backlog queued behind the running job still takes
// its turn: served after a delete, failed fast after an eviction.
func TestTeardownDuringInlineServe(t *testing.T) {
	deleteTenant := func(t *testing.T, _ *Server, url string, _ *tenant) {
		req, _ := http.NewRequest(http.MethodDelete, url+"/v1/tenants/a", nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Error(err)
			return
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNoContent {
			t.Errorf("DELETE: status %d, want 204", resp.StatusCode)
		}
	}
	evict := func(_ *testing.T, s *Server, _ string, tn *tenant) {
		s.onDeadProgram(tn.prog.Slot(), 0, 0) // what the lease sweeper calls
	}
	cases := []struct {
		name     string
		teardown func(t *testing.T, s *Server, hs string, tn *tenant)
		// backlog, when set, is the status a job queued behind the
		// running one answers.
		backlog int
	}{
		{"delete", deleteTenant, 0},
		{"shutdown", func(t *testing.T, s *Server, _ string, _ *tenant) {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if err := s.Shutdown(ctx); err != nil {
				t.Errorf("Shutdown: %v", err)
			}
		}, 0},
		{"eviction", evict, 0},
		{"delete with backlog", deleteTenant, http.StatusOK},
		{"eviction with backlog", evict, http.StatusServiceUnavailable},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s, hs := newTestServer(t, Config{Cores: 2, Policy: rt.DWS, MaxTenants: 1})
			running := sendAsync(t, hs.URL, JobRequest{Tenant: "a", Kernel: "Mergesort", Size: 1.0})
			var tn *tenant
			waitUntil(t, "the job runs", func() bool {
				if tl := s.tenantList(); len(tl) == 1 && tl[0].inFlight.Load() {
					tn = tl[0]
				}
				return tn != nil
			})
			var queued func() (int, JobResult)
			if c.backlog != 0 {
				queued = sendAsync(t, hs.URL, JobRequest{Tenant: "a", Kernel: "FFT", Size: 0.02})
				waitUntil(t, "the second job is queued", func() bool { return tn.queueLen() == 1 })
			}

			torn := make(chan struct{})
			go func() {
				defer close(torn)
				c.teardown(t, s, hs.URL, tn)
			}()
			code, res := running()
			<-torn
			<-tn.exited
			if code != http.StatusOK || res.Status != StatusOK || res.Stats.Runs != 1 {
				t.Fatalf("job running through %s: status %d, result %+v; want it served", c.name, code, res)
			}
			if c.backlog != 0 {
				if code, res := queued(); code != c.backlog {
					t.Fatalf("job queued through %s: status %d, result %+v; want %d", c.name, code, res, c.backlog)
				}
			}
			if err := tn.prog.Run(nil); err != rt.ErrClosed {
				t.Fatalf("after %s the program still runs jobs (Run: %v)", c.name, err)
			}
			if c.name != "shutdown" {
				if free := s.System().FreeSlots(); free != 1 {
					t.Fatalf("after %s FreeSlots = %d, want 1", c.name, free)
				}
			}
		})
	}
}
