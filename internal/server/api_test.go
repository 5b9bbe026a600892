package server

import (
	"context"
	"encoding/json"
	"math"
	"testing"
	"time"

	"dws/internal/kernels"
	"dws/internal/rt"
)

// TestJobResultWireBytes pins the exact bytes of a JobResult whose
// counters are all distinct and non-zero: the wire schema dwsd answers
// with and dwsrun -json prints must not move when the counter type does.
func TestJobResultWireBytes(t *testing.T) {
	res := JobResult{
		ID: 7, Tenant: "alice", Kernel: "FFT", Policy: "DWS", Cores: 4, Size: 0.25,
		Status: StatusOK, QueueMS: 1.5, RunMS: 2.25, TotalMS: 3.75,
		Stats: Stats{
			Steals: 1, FailedSteals: 2, LocalSteals: 3, RemoteSteals: 4,
			Sleeps: 5, Wakes: 6, Evictions: 7, Claims: 8, Reclaims: 9, Runs: 10,
			DeadSweeps: 11, CoresRecovered: 12,
		},
	}
	got, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"id":7,"tenant":"alice","kernel":"FFT","policy":"DWS","cores":4,"size":0.25,` +
		`"status":"ok","queue_ms":1.5,"run_ms":2.25,"total_ms":3.75,` +
		`"stats":{"steals":1,"failed_steals":2,"local_steals":3,"remote_steals":4,` +
		`"sleeps":5,"wakes":6,"evictions":7,"claims":8,"reclaims":9,"runs":10,` +
		`"dead_sweeps":11,"cores_recovered":12}}`
	if string(got) != want {
		t.Errorf("JobResult wire bytes moved:\n got %s\nwant %s", got, want)
	}

	// The omitempty counters vanish at zero; the others stay.
	got, err = json.Marshal(Stats{})
	if err != nil {
		t.Fatal(err)
	}
	const zero = `{"steals":0,"failed_steals":0,"sleeps":0,"wakes":0,"evictions":0,"claims":0,"reclaims":0,"runs":0}`
	if string(got) != zero {
		t.Errorf("zero Stats wire bytes moved:\n got %s\nwant %s", got, zero)
	}
}

// TestTerminalRecords resolves one job down each terminal path — served,
// expired or canceled while queued, failed fast after an eviction, shed —
// and checks the record each leaves: the job's identity, its status, its
// queue wait, and run time and counters only when it ran.
func TestTerminalRecords(t *testing.T) {
	s, hs := newTestServer(t, Config{Cores: 2, Policy: rt.DWS, MaxTenants: 1})
	if resp, _ := submit(t, hs.URL, JobRequest{Tenant: "a", Kernel: "FFT", Size: 0.02}); resp.StatusCode != 200 {
		t.Fatalf("creating tenant a: status %d", resp.StatusCode)
	}
	tn := s.tenantList()[0]
	spec, _ := kernels.ByName("FFT")
	gone, cancel := context.WithCancel(context.Background())
	cancel()

	for _, c := range []struct {
		name     string
		resolve  func(*job)
		deadline time.Duration
		client   context.Context
		want     string
		ran      bool
	}{
		{"served", tn.serve, time.Minute, context.Background(), StatusOK, true},
		{"expired", tn.serve, 0, context.Background(), StatusExpired, false},
		{"canceled", tn.serve, time.Minute, gone, StatusCanceled, false},
		{"evicted", tn.failFast, time.Minute, context.Background(), StatusCanceled, false},
		{"shed", s.resolveShed, time.Minute, context.Background(), StatusShed, false},
	} {
		enq := time.Now().Add(-time.Millisecond)
		j := &job{id: 9, spec: spec, size: 0.02, tn: tn, client: c.client,
			enqueued: enq, deadline: enq.Add(c.deadline), done: make(chan struct{})}
		c.resolve(j)
		<-j.done
		r := j.res
		if r.ID != 9 || r.Tenant != "a" || r.Kernel != spec.Name || r.Policy != "DWS" ||
			r.Cores != 2 || r.Size != 0.02 || r.Status != c.want {
			t.Errorf("%s: record %+v, want job 9 of tenant a, status %s", c.name, r, c.want)
		}
		if r.QueueMS < 1 || math.Abs(r.TotalMS-(r.QueueMS+r.RunMS)) > 1e-6 {
			t.Errorf("%s: queue %vms run %vms total %vms", c.name, r.QueueMS, r.RunMS, r.TotalMS)
		}
		if ran := r.RunMS > 0 && r.Stats.Runs == 1; ran != c.ran {
			t.Errorf("%s: run %vms, counters %+v; ran = %v, want %v", c.name, r.RunMS, r.Stats, ran, c.ran)
		}
		if !c.ran && r.Stats != (Stats{}) {
			t.Errorf("%s: a job that never ran carries counters %+v", c.name, r.Stats)
		}
	}
}
