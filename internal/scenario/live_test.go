package scenario

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"dws/internal/rt"
	"dws/internal/server"
)

// TestRunLiveEndToEnd replays a tiny trace — two tenants, a synthetic
// kernel, a leave event, and a declared weight — against an in-process
// dwsd and checks the outcome accounting. Replayed 50x faster than trace
// time so the test stays quick.
func TestRunLiveEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("live replay")
	}
	s, err := server.New(server.Config{Cores: 4, Policy: rt.DWS, MaxTenants: 4})
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

	tr := &Trace{Version: Version, Name: "live-smoke", Seed: 1, Events: []Event{
		{AtUS: 0, Tenant: "alice", Op: OpJob, Kernel: "s-1", Scale: 0.02, Weight: 2},
		{AtUS: 100_000, Tenant: "bob", Op: OpJob, Kernel: "p-8", Scale: 0.01},
		{AtUS: 200_000, Tenant: "alice", Op: OpJob, Kernel: "s-1", Scale: 0.02},
		{AtUS: 300_000, Tenant: "bob", Op: OpJob, Kernel: "p-8", Scale: 0.01},
		{AtUS: 400_000, Tenant: "alice", Op: OpLeave},
	}}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}

	res, err := RunLive(tr, LiveOptions{
		BaseURL:   hs.URL,
		TimeScale: 0.02,
		Logf:      t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Substrate != "live" || res.Scenario != "live-smoke" {
		t.Fatalf("result labels: %+v", res)
	}
	if res.Sent != 4 || res.Errors != 0 {
		t.Fatalf("sent=%d errors=%d, want 4 sent and no errors:\n%s", res.Sent, res.Errors, res.Table())
	}
	if res.OK+res.Late != 4 {
		t.Fatalf("completions: %+v", res)
	}
	if len(res.Tenants) != 2 {
		t.Fatalf("tenant rows: %+v", res.Tenants)
	}
	for _, tr := range res.Tenants {
		if tr.Latency.P95 <= 0 {
			t.Fatalf("%s has no latency sample: %+v", tr.Tenant, tr)
		}
	}
}

// TestRunLiveUnreachable fails fast when no server answers.
func TestRunLiveUnreachable(t *testing.T) {
	tr := &Trace{Version: Version, Name: "x", Events: []Event{
		{AtUS: 0, Tenant: "a", Op: OpJob, Kernel: "p-1", Scale: 0.01},
	}}
	if _, err := RunLive(tr, LiveOptions{BaseURL: "http://127.0.0.1:1"}); err == nil {
		t.Fatal("replay against a dead address succeeded")
	}
}
