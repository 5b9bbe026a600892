package metrics

import (
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func render(r *Registry) string {
	var b strings.Builder
	r.WriteText(&b)
	return b.String()
}

func TestCounterExposition(t *testing.T) {
	r := NewRegistry()
	jobs := r.NewCounter("dws_jobs_total", "Jobs by status.", "tenant", "status")
	jobs.With("alice", "ok").Add(3)
	jobs.With("bob", "rejected").Inc()
	out := render(r)
	for _, want := range []string{
		"# HELP dws_jobs_total Jobs by status.",
		"# TYPE dws_jobs_total counter",
		`dws_jobs_total{tenant="alice",status="ok"} 3`,
		`dws_jobs_total{tenant="bob",status="rejected"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestGaugeAndUnlabeled(t *testing.T) {
	r := NewRegistry()
	g := r.NewGauge("dws_queue_depth", "")
	g.With().Set(4)
	g.With().Add(-1)
	out := render(r)
	if !strings.Contains(out, "dws_queue_depth 3\n") {
		t.Errorf("unlabeled gauge wrong:\n%s", out)
	}
	if strings.Contains(out, "# HELP dws_queue_depth") {
		t.Errorf("empty help should be omitted:\n%s", out)
	}
}

func TestHistogramCumulativeBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("lat", "", []float64{0.1, 1, 10}, "policy")
	obs := h.With("DWS")
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		obs.Observe(v)
	}
	out := render(r)
	for _, want := range []string{
		`lat_bucket{policy="DWS",le="0.1"} 1`,
		`lat_bucket{policy="DWS",le="1"} 3`,
		`lat_bucket{policy="DWS",le="10"} 4`,
		`lat_bucket{policy="DWS",le="+Inf"} 5`,
		`lat_sum{policy="DWS"} 56.05`,
		`lat_count{policy="DWS"} 5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestOnScrapeHookAndHandler(t *testing.T) {
	r := NewRegistry()
	depth := r.NewGauge("depth", "")
	live := 7
	r.OnScrape(func() { depth.With().Set(float64(live)) })
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "depth 7\n") {
		t.Errorf("scrape hook not applied:\n%s", rec.Body.String())
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("c", "", "name")
	c.With(`we"ird\ten` + "\nant").Inc()
	out := render(r)
	if !strings.Contains(out, `c{name="we\"ird\\ten\nant"} 1`) {
		t.Errorf("label escaping wrong:\n%s", out)
	}
}

func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("n", "", "who")
	h := r.NewHistogram("l", "", nil, "who")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			who := string(rune('a' + g%2))
			for i := 0; i < 1000; i++ {
				c.With(who).Inc()
				h.With(who).Observe(float64(i) / 1000)
			}
		}(g)
	}
	wg.Wait()
	out := render(r)
	if !strings.Contains(out, `n{who="a"} 4000`) || !strings.Contains(out, `n{who="b"} 4000`) {
		t.Errorf("concurrent counts wrong:\n%s", out)
	}
	if !strings.Contains(out, `l_count{who="a"} 4000`) {
		t.Errorf("concurrent histogram count wrong:\n%s", out)
	}
}

// TestWithExistingSeriesAllocatesNothing: the serving path looks up a
// multi-label series on every job; once the series exists, that lookup and
// the increment allocate nothing.
func TestWithExistingSeriesAllocatesNothing(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("jobs", "", "tenant", "kernel", "status")
	h := r.NewHistogram("lat", "", nil, "tenant", "kernel")
	c.With("alice", "FFT", "ok").Inc()
	h.With("alice", "FFT").Observe(1)
	if n := testing.AllocsPerRun(100, func() {
		c.With("alice", "FFT", "ok").Inc()
		h.With("alice", "FFT").Observe(0.5)
	}); n != 0 {
		t.Fatalf("With on an existing series allocated %v times per call, want 0", n)
	}
	if !strings.Contains(render(r), `jobs{tenant="alice",kernel="FFT",status="ok"} 102`) {
		t.Errorf("lookups did not reach the existing series:\n%s", render(r))
	}
}

func TestSchemaConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("x", "")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering x as gauge should panic")
		}
	}()
	r.NewGauge("x", "")
}
