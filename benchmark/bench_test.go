package main

import (
	"errors"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"dws/internal/server"
)

// The benchmark's own arithmetic. No server is started here.

func TestWindowCountsDropsPartialLastWindow(t *testing.T) {
	const s = int64(1e9)
	ends := []int64{
		0, s / 2, s - 1, // window 0
		s, s + 1, // window 1
		// window 2 is empty
		3 * s, // at the end of a 3.5 s interval's last whole window: dropped
		3*s + s/4,
		-5, // before the interval
	}
	got := windowCounts(ends, 3*s+s/2, s)
	if want := []float64{3, 2, 0}; !reflect.DeepEqual(got, want) {
		t.Fatalf("windowCounts = %v, want %v", got, want)
	}
	if _, med, _ := quartiles(got); med != 2 {
		t.Errorf("median window count = %v, want 2", med)
	}
	if got := windowCounts(ends, s/2, s); len(got) != 0 {
		t.Errorf("an interval shorter than a window has %d windows, want 0", len(got))
	}
}

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {300000, 99},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = p%g, want p%g", c.n, got, c.want)
		}
	}
	// 100 samples 1..100: p90 by linear interpolation between ranks.
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := tail(xs); got < 90 || got > 91 {
		t.Errorf("tail of 1..100 = %v, want the 90th percentile", got)
	}
}

func TestSelfTime(t *testing.T) {
	client := span{Start: 0, End: 100}
	rtr := span{Start: 10, End: 90}
	refused := span{Start: 15, End: 35}
	served := span{Start: 40, End: 85}
	for _, c := range []struct {
		name     string
		parent   span
		children []span
		want     int64
	}{
		{"no children", client, nil, 100},
		{"nested: only the direct child counts", client, []span{rtr}, 20},
		{"two siblings: the hop-1 router span", rtr, []span{refused, served}, 80 - 20 - 45},
		{"sibling order does not matter", rtr, []span{served, refused}, 15},
		{"overlapping children are counted once", rtr, []span{{Start: 20, End: 50}, {Start: 40, End: 60}}, 80 - 40},
		{"children are clipped to the parent", rtr, []span{{Start: 0, End: 20}, {Start: 80, End: 200}}, 80 - 10 - 10},
		{"a child outside the parent covers nothing", rtr, []span{{Start: 95, End: 99}}, 80},
	} {
		if got := selfTime(c.parent, c.children...); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestClassify(t *testing.T) {
	want := server.JobRequest{Tenant: "a-1", Kernel: "Cholesky", Size: 0.001}
	impatient := want
	impatient.DeadlineMS = 1
	okBody := `{"tenant":"a-1","kernel":"Cholesky","size":0.001,"status":"ok","queue_ms":0.01,"run_ms":0.02,"total_ms":0.03}`
	hdr := func(kv ...string) http.Header {
		h := http.Header{}
		for i := 0; i < len(kv); i += 2 {
			h.Set(kv[i], kv[i+1])
		}
		return h
	}
	for _, c := range []struct {
		name string
		code int
		h    http.Header
		body string
		err  error
		req  server.JobRequest
		want outcome
	}{
		{"200 ok", 200, nil, okBody, nil, want, outcomeOK},
		{"200 that does not decode", 200, nil, `{"status":`, nil, want, outcomeFailed},
		{"200 with another status", 200, nil, strings.Replace(okBody, `"ok"`, `"canceled"`, 1), nil, want, outcomeFailed},
		{"200 echoing another tenant", 200, nil, strings.Replace(okBody, "a-1", "b-1", 1), nil, want, outcomeFailed},
		{"200 echoing another kernel", 200, nil, strings.Replace(okBody, "Cholesky", "FFT", 1), nil, want, outcomeFailed},
		{"200 echoing another size", 200, nil, strings.Replace(okBody, "0.001", "0.002", 1), nil, want, outcomeFailed},
		{"429 with reason and Retry-After", 429, hdr(server.RejectReasonHeader, "early_reject", "Retry-After", "1"), "", nil, impatient, outcomeRefused},
		{"429 without a reason", 429, hdr("Retry-After", "1"), "", nil, impatient, outcomeFailed},
		{"429 without Retry-After", 429, hdr(server.RejectReasonHeader, "early_reject"), "", nil, impatient, outcomeFailed},
		{"429 with Retry-After 0", 429, hdr(server.RejectReasonHeader, "shed", "Retry-After", "0"), "", nil, impatient, outcomeFailed},
		{"503", 503, hdr(), `{"error":"no free tenant slot"}`, nil, want, outcomeFailed},
		{"504 for a request with its own deadline", 504, hdr(), "", nil, impatient, outcomeExpired},
		{"504 under the 30 s default deadline", 504, hdr(), "", nil, want, outcomeFailed},
		{"400", 400, hdr(), "", nil, want, outcomeFailed},
		{"transport error", 0, nil, "", errors.New("connection reset"), want, outcomeFailed},
	} {
		if got, _ := classify(c.code, c.h, []byte(c.body), c.err, c.req); got != c.want {
			t.Errorf("%s: outcome %d, want %d", c.name, got, c.want)
		}
	}
	if _, res := classify(200, nil, []byte(okBody), nil, want); res.TotalMS != 0.03 {
		t.Errorf("classify lost the JobResult: %+v", res)
	}
}

func TestMetricNames(t *testing.T) {
	for name, ok := range map[string]bool{
		"jobs_per_s": true, "sim.suite_s.DWS-NC": true, "rt.run_ms_p50.hog": true, "2xx": true,
		"": false, ".hidden": false, "µs_per_job": false, "has space": false, "a/b": false,
		strings.Repeat("x", 64): true, strings.Repeat("x", 65): false,
	} {
		if nameRe.MatchString(name) != ok {
			t.Errorf("name %q: valid = %v, want %v", name, !ok, ok)
		}
	}
	for unit, ok := range map[string]bool{"ms": true, "1/s": true, "%": true, "1": true, "µs": false, "": false, "seventeen_letters": false} {
		if unitRe.MatchString(unit) != ok {
			t.Errorf("unit %q: valid = %v, want %v", unit, !ok, ok)
		}
	}
}

// TestDeclarations holds the code to BENCHMARK.json: the workloads the code
// can run are the ones declared, and every name the code zero-fills is a
// declared per-layer metric.
func TestDeclarations(t *testing.T) {
	d, err := loadDecl("../" + declPath)
	if err != nil {
		t.Fatal(err)
	}
	var have []string
	for _, w := range liveWorkloads {
		have = append(have, w.name)
	}
	have = append(have, simSweepName)
	if !reflect.DeepEqual(d.workloadNames(), have) {
		t.Errorf("BENCHMARK.json declares workloads %v, the code runs %v", d.workloadNames(), have)
	}
	perLayer := map[string]bool{}
	for _, m := range d.PerLayer {
		perLayer[m.Name] = true
	}
	for _, name := range append(append([]string{}, liveOnlyMetrics...), simOnlyMetrics...) {
		if !perLayer[name] {
			t.Errorf("%s is zero-filled by the code but is not a per_layer metric of BENCHMARK.json", name)
		}
	}

	// A metric printed but not declared fails, and so does one declared
	// but not printed.
	got := map[string]float64{}
	for _, m := range d.EndToEnd {
		got[m.Name] = 1
	}
	if p := checkDeclared(d, d.EndToEnd, got); len(p) != 0 {
		t.Errorf("the declared set itself is rejected: %v", p)
	}
	got["made_up_metric"] = 1
	if p := checkDeclared(d, d.EndToEnd, got); len(p) != 1 || !strings.Contains(p[0], "made_up_metric") {
		t.Errorf("an undeclared metric was not caught: %v", p)
	}
	delete(got, "made_up_metric")
	delete(got, "setup_s")
	if p := checkDeclared(d, d.EndToEnd, got); len(p) != 1 || !strings.Contains(p[0], "setup_s") {
		t.Errorf("a missing declared metric was not caught: %v", p)
	}

	bad := *d
	bad.EndToEnd = append([]metricDecl{}, d.EndToEnd...)
	bad.EndToEnd[1].Name = "setup_s"
	if bad.validate() == nil {
		t.Error("a name used twice passed validation")
	}
}

func TestReadingTheProgramsOutputs(t *testing.T) {
	text := `# HELP dws_jobs_total Jobs by final status.
# TYPE dws_jobs_total counter
dws_jobs_total{tenant="a",kernel="Cholesky",status="ok"} 2012
dws_jobs_total{tenant="b",kernel="Cholesky",status="ok"} 2000
dws_jobs_total{tenant="b",kernel="Cholesky",status="expired"} 7
dws_jobs_total_created{status="ok"} 99
dws_router_spills_total{from="s0",to="s1",reason="unavailable"} 41
`
	if got := sumSeries(text, "dws_jobs_total", `status="ok"`); got != 4012 {
		t.Errorf("ok jobs = %v, want 4012", got)
	}
	if got := sumSeries(text, "dws_router_spills_total", ""); got != 41 {
		t.Errorf("spills = %v, want 41", got)
	}
	body := []byte(`{"tenant":"t-0a1b2c","kernel":"FFT","size":0.05,"deadline_ms":1}`)
	if got := flowOf(body); got != "t-0a1b2c/FFT" {
		t.Errorf("flowOf = %q", got)
	}
	if got := flowOf([]byte(`{}`)); got != "/" {
		t.Errorf("flowOf of an empty request = %q", got)
	}
}

func TestParseChild(t *testing.T) {
	out := `# workload null-direct seed 1 seconds 20 trace false
host.calib_end_ms 2.9 ms  # unsteady: the host's speed moved
host.calib_start_ms 2.5 ms
jobs_per_s 15155.5 1/s  # q1 14439 q3 15842 of 20 windows
{"correct":true,"attempted":60504,"failed":0,"metrics":{"jobs_per_s":{"value":15155.5,"unit":"1/s"}}}
`
	cr, err := parseChild(out)
	if err != nil {
		t.Fatal(err)
	}
	if cr.Metrics["jobs_per_s"] != 15155.5 || cr.Attempted != 60504 || cr.Failed != 0 || !cr.Unsteady {
		t.Errorf("parsed %+v", cr)
	}
	if _, err := parseChild("no result here\n"); err == nil {
		t.Error("output without a result line parsed")
	}
}
