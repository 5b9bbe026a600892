package server

import (
	"context"
	"net/http"
	"sync"
	"testing"
	"time"

	"dws/internal/rt"
)

// popsByRunner records the ID of every job a tenant's runner pops until
// the test ends. It is set before any server starts, and cleared after
// the test's servers are shut down.
func popsByRunner(t *testing.T) func() []uint64 {
	var mu sync.Mutex
	var ids []uint64
	runnerPopped = func(j *job) {
		mu.Lock()
		ids = append(ids, j.id)
		mu.Unlock()
	}
	t.Cleanup(func() { runnerPopped = nil })
	return func() []uint64 {
		mu.Lock()
		defer mu.Unlock()
		return append([]uint64(nil), ids...)
	}
}

// waitUntil polls cond until it holds, failing the test after 10 s.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
	}
}

// TestIdleTenantServedInline: a job admitted to an idle tenant is served
// by the handler that admitted it, so sequential jobs never pass through
// the tenant's runner goroutine.
func TestIdleTenantServedInline(t *testing.T) {
	pops := popsByRunner(t)
	_, hs := newTestServer(t, Config{Cores: 2, Policy: rt.DWS, MaxTenants: 2})
	for i := 0; i < 100; i++ {
		resp, res := submit(t, hs.URL, JobRequest{Tenant: "a", Kernel: "Cholesky", Size: 0.001})
		if resp.StatusCode != http.StatusOK || res.Status != StatusOK || res.Stats.Runs != 1 {
			t.Fatalf("job %d: status %d, result %+v", i, resp.StatusCode, res)
		}
	}
	if got := pops(); len(got) != 0 {
		t.Fatalf("the runner popped %d of 100 sequential jobs, want 0", len(got))
	}
}

// TestBacklogKeepsArrivalOrder: while a serve holds the tenant, later
// jobs queue; when it lets go they are served by the runner in the order
// they arrived, and a job arriving behind backlog joins it rather than
// being served inline ahead of it.
func TestBacklogKeepsArrivalOrder(t *testing.T) {
	pops := popsByRunner(t)
	s, hs := newTestServer(t, Config{Cores: 2, Policy: rt.DWS, MaxTenants: 1, QueueDepth: 8})
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
			resp, res := submit(t, hs.URL, JobRequest{Tenant: "a", Kernel: "FFT", Size: 0.02})
			if resp.StatusCode != http.StatusOK || res.Status != StatusOK {
				t.Errorf("queued job %d: status %d, result %+v", i, resp.StatusCode, res)
			}
			ids[i] = res.ID
		}()
	}
	// Hold the tenant as an in-flight serve does, and queue behind it.
	s.adm.mu.Lock()
	tn.busy = true
	s.adm.mu.Unlock()
	for i := 0; i < n-1; i++ {
		send(i)
		waitUntil(t, "the job is queued", func() bool { return tn.queueLen() == i+1 })
	}
	// Let go as release does, but before the runner is woken: the last
	// arrival finds the tenant idle with backlog, and must queue behind it.
	s.adm.mu.Lock()
	tn.busy = false
	s.adm.mu.Unlock()
	send(n - 1)
	wg.Wait()

	got := pops()
	if len(got) != n {
		t.Fatalf("the runner popped %v, want all %d jobs that arrived behind the hold", got, n)
	}
	for i := range got {
		if got[i] != ids[i] {
			t.Fatalf("served in order %v, want arrival order %v", got, ids)
		}
	}
}

// TestTeardownDuringInlineServe: deleting the tenant, draining the
// server, or evicting the tenant while its job runs on the submitting
// handler lets the job finish and answer, then closes the program once
// and frees its slot.
func TestTeardownDuringInlineServe(t *testing.T) {
	cases := []struct {
		name     string
		teardown func(t *testing.T, s *Server, hs string, tn *tenant)
	}{
		{"delete", func(t *testing.T, _ *Server, url string, _ *tenant) {
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
		}},
		{"shutdown", func(t *testing.T, s *Server, _ string, _ *tenant) {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if err := s.Shutdown(ctx); err != nil {
				t.Errorf("Shutdown: %v", err)
			}
		}},
		{"eviction", func(_ *testing.T, s *Server, _ string, tn *tenant) {
			s.onDeadProgram(tn.prog.Slot(), 0, 0) // what the lease sweeper calls
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			pops := popsByRunner(t)
			s, hs := newTestServer(t, Config{Cores: 2, Policy: rt.DWS, MaxTenants: 1})
			type answer struct {
				code int
				res  JobResult
			}
			answered := make(chan answer, 1)
			go func() {
				resp, res := submit(t, hs.URL, JobRequest{Tenant: "a", Kernel: "Mergesort", Size: 1.0})
				answered <- answer{resp.StatusCode, res}
			}()
			var tn *tenant
			waitUntil(t, "the job runs", func() bool {
				if tl := s.tenantList(); len(tl) == 1 && tl[0].inFlight.Load() {
					tn = tl[0]
				}
				return tn != nil
			})

			torn := make(chan struct{})
			go func() {
				defer close(torn)
				c.teardown(t, s, hs.URL, tn)
			}()
			got := <-answered
			<-torn
			<-tn.exited
			if got.code != http.StatusOK || got.res.Status != StatusOK || got.res.Stats.Runs != 1 {
				t.Fatalf("job running through %s: status %d, result %+v; want it served", c.name, got.code, got.res)
			}
			if err := tn.prog.Run(nil); err != rt.ErrClosed {
				t.Fatalf("after %s the program still runs jobs (Run: %v)", c.name, err)
			}
			if c.name != "shutdown" {
				if free := s.System().FreeSlots(); free != 1 {
					t.Fatalf("after %s FreeSlots = %d, want 1", c.name, free)
				}
			}
			if p := pops(); len(p) != 0 {
				t.Fatalf("the runner popped %v; the job was meant to run inline", p)
			}
		})
	}
}
