package router_test

// Live federation end-to-end: dwsrouter over in-process dwsd shards,
// driven by the scenario engine's live runner. The smoke test always
// runs; the overload-storm battery (3 shards, mid-run shard kill,
// single-shard baseline, sim-vs-live spill-policy ranking) is gated
// behind FEDERATION_CI because it replays wall-clock storms.
//
// This lives in package router_test (external): internal/scenario imports
// internal/router for ring placement, so the e2e harness can only sit on
// the test side of the package boundary.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"dws/internal/admit"
	"dws/internal/router"
	"dws/internal/rt"
	"dws/internal/scenario"
	"dws/internal/server"
	"dws/internal/sim"
)

// fedShard is one in-process dwsd member of a test federation.
type fedShard struct {
	name string
	srv  *server.Server
	hs   *httptest.Server
}

// startFederation builds n dwsd shards and a router over them. Shard
// names are s0..sn-1 — the same identities RunFedSim's ring uses, so
// placement agrees across substrates by construction.
func startFederation(t *testing.T, n int, shardCfg server.Config, rcfg router.Config) (*router.Router, *httptest.Server, []*fedShard) {
	t.Helper()
	shards := make([]*fedShard, n)
	for i := range shards {
		s, err := server.New(shardCfg)
		if err != nil {
			t.Fatal(err)
		}
		hs := httptest.NewServer(s.Handler())
		shards[i] = &fedShard{name: fmt.Sprintf("s%d", i), srv: s, hs: hs}
		t.Cleanup(func() {
			hs.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			_ = s.Shutdown(ctx)
		})
	}
	specs := make([]router.ShardSpec, n)
	for i, sh := range shards {
		specs[i] = router.ShardSpec{Name: sh.name, URL: sh.hs.URL}
	}
	rcfg.Shards = specs
	rcfg.Logf = t.Logf
	rt, err := router.New(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(func() {
		front.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = rt.Shutdown(ctx)
	})
	return rt, front, shards
}

func accounted(t *testing.T, r *scenario.Result) {
	t.Helper()
	total := r.OK + r.Late + r.Expired + r.Rejected + r.Shed + r.EarlyRejected + r.Errors
	if total != r.Sent {
		t.Fatalf("job accounting leak: sent=%d but outcomes sum to %d: %s", r.Sent, total, r)
	}
}

// TestFederationLiveSmoke always runs: a short trace through a 2-shard
// federation must complete every job with zero transport errors and keep
// each tenant on one shard.
func TestFederationLiveSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("live replay")
	}
	_, front, shards := startFederation(t, 2,
		server.Config{Cores: 2, Policy: rt.DWS, MaxTenants: 2},
		router.Config{Spill: router.SpillNext, ProbePeriod: time.Hour})

	tr := &scenario.Trace{Version: scenario.Version, Name: "fed-smoke", Seed: 1, Events: []scenario.Event{
		{AtUS: 0, Tenant: "alice", Op: scenario.OpJob, Kernel: "s-1", Scale: 0.02},
		{AtUS: 50_000, Tenant: "bob", Op: scenario.OpJob, Kernel: "p-8", Scale: 0.01},
		{AtUS: 100_000, Tenant: "alice", Op: scenario.OpJob, Kernel: "s-1", Scale: 0.02},
		{AtUS: 150_000, Tenant: "bob", Op: scenario.OpJob, Kernel: "p-8", Scale: 0.01},
	}}
	res, err := scenario.RunLive(tr, scenario.LiveOptions{BaseURL: front.URL, TimeScale: 0.02, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	accounted(t, res)
	if res.Errors != 0 || res.OK+res.Late != 4 {
		t.Fatalf("smoke replay: %s", res)
	}
	// Tenant stickiness across the federation: each tenant's program was
	// created on exactly one shard.
	hosted := 0
	for _, sh := range shards {
		resp, err := sh.hs.Client().Get(sh.hs.URL + "/v1/tenants")
		if err != nil {
			t.Fatal(err)
		}
		var rows []server.TenantInfo
		if err := jsonDecode(resp, &rows); err != nil {
			t.Fatal(err)
		}
		hosted += len(rows)
	}
	if hosted != 2 {
		t.Fatalf("2 tenants materialized %d shard-tenancies, want 2 (sticky)", hosted)
	}
}

// TestFederationOverloadStorm is the federation CI battery (FEDERATION_CI):
//
//  1. 3 healthy shards beat a single shard on overload-storm ok-rate
//     (spill-over turns refusals into completions);
//  2. killing one shard mid-storm costs at most 5pp of ok-rate versus the
//     healthy 3-shard run, every job still accounted;
//  3. the sim's spill-policy ranking (no-spill vs next-preferred) agrees
//     with the live order, with a decisive margin required on both
//     substrates before declaring divergence (same contract as the
//     sim/live parity battery).
func TestFederationOverloadStorm(t *testing.T) {
	if os.Getenv("FEDERATION_CI") == "" {
		t.Skip("set FEDERATION_CI=1 to run the live federation storm battery")
	}
	const (
		cores     = 4
		timeScale = 0.05
		decisive  = 0.10
	)
	tr, err := scenario.CompileByName("overload-storm")
	if err != nil {
		t.Fatal(err)
	}
	tenants := tr.Tenants()
	shardCfg := server.Config{
		Cores: cores, Policy: rt.DWS, MaxTenants: len(tenants) + 1,
		QueueDepth: 8, GlobalQueueDepth: len(tenants) * 4,
	}

	runFed := func(name string, n int, spill admit.SpillPolicy, sabotage func([]*fedShard)) (*scenario.Result, string) {
		t.Helper()
		rtr, front, shards := startFederation(t, n, shardCfg, router.Config{
			Spill:       spill,
			ProbePeriod: 25 * time.Millisecond,
			EjectAfter:  2,
		})
		var wg sync.WaitGroup
		if sabotage != nil {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sabotage(shards)
			}()
		}
		res, err := scenario.RunLive(tr, scenario.LiveOptions{BaseURL: front.URL, TimeScale: timeScale, Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		metricsBody := ""
		if resp, err := front.Client().Get(front.URL + "/metrics"); err == nil {
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			metricsBody = string(b)
		}
		_ = rtr
		t.Logf("%s: %s", name, res)
		accounted(t, res)
		return res, metricsBody
	}

	// Single-shard baseline (a router over 1 shard: same proxy overhead,
	// nothing to spill to).
	baseline, _ := runFed("1-shard", 1, admit.SpillNone, nil)

	// Healthy 3-shard federation with next-preferred spill.
	healthy, healthyMetrics := runFed("3-shard", 3, router.SpillNext, nil)
	if healthy.OKRate() < baseline.OKRate() {
		t.Errorf("3-shard federation ok-rate %.3f below single-shard baseline %.3f",
			healthy.OKRate(), baseline.OKRate())
	}

	// Kill one shard mid-storm: graceful SIGTERM-style drain. The prober
	// ejects it (draining /healthz answers 503) and the spill path absorbs
	// the refusals; in-flight jobs finish inside the drain.
	victim := -1
	killed, killedMetrics := runFed("3-shard-kill", 3, router.SpillNext, func(shards []*fedShard) {
		time.Sleep(40 * time.Millisecond) // mid-submission at timescale 0.05
		victim = len(shards) - 1
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = shards[victim].srv.Shutdown(ctx)
	})
	if gap := healthy.OKRate() - killed.OKRate(); gap > 0.05 {
		t.Errorf("losing one shard cost %.1fpp ok-rate (healthy %.3f, killed %.3f), budget 5pp",
			gap*100, healthy.OKRate(), killed.OKRate())
	}
	if killed.Errors > 0 {
		t.Errorf("shard kill leaked %d unclassified errors: %s", killed.Errors, killed)
	}
	// Redirects around the dead shard must be visible in the spill ledger.
	if !strings.Contains(killedMetrics, "dws_router_spills_total") &&
		!strings.Contains(killedMetrics, "dws_router_shard_healthy") {
		t.Error("kill run exposes no spill/health metrics")
	}
	_ = healthyMetrics
	_ = victim

	// Sim-vs-live spill-policy ranking. Live no-spill 3-shard run:
	noSpill, _ := runFed("3-shard-nospill", 3, admit.SpillNone, nil)
	liveGap := healthy.OKRate() - noSpill.OKRate()

	simRate := func(p admit.SpillPolicy) float64 {
		c := sim.DefaultConfig()
		c.Policy = sim.DWS
		c.Cores = cores
		fr, err := scenario.RunFedSim(tr, scenario.FedSimOptions{
			Config:    c,
			Shards:    3,
			Spill:     p,
			QueueCap:  8,
			Admission: &sim.AdmissionOpts{GlobalCap: len(tenants) * 4, EarlyReject: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("fedsim %v: %s", p, fr.Result)
		return fr.Result.OKRate()
	}
	simGap := simRate(sim.SpillNext) - simRate(admit.SpillNone)
	if (simGap >= decisive && liveGap <= -decisive) || (simGap <= -decisive && liveGap >= decisive) {
		t.Errorf("spill-policy ranking diverged: sim next-vs-none gap %.3f, live gap %.3f", simGap, liveGap)
	}
	t.Logf("spill ranking: sim next-vs-none gap %.3f, live gap %.3f", simGap, liveGap)
}

// jsonDecode decodes a response body and closes it.
func jsonDecode(resp *http.Response, v any) error {
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(v)
}
