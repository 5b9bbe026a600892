package server

import (
	"bufio"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"dws/internal/rt"
)

// TestOneVerdictPerJob: every job's answer carries the verdict /metrics
// counts for it (dws_jobs_total's status label). A queued job that starts
// before its deadline is served even if it finishes after it (200, ok,
// total_ms over the deadline); a 504 means the job never started. The
// test holds each tenant as a serve holds it and lets go itself, so which
// job starts in time is decided here, not by a race with a run time.
func TestOneVerdictPerJob(t *testing.T) {
	var jobs []sentJob
	// send submits req and returns a function that waits for its answer,
	// records the job and returns the answer.
	send := func(url string, req JobRequest) func() (int, JobResult) {
		answer := sendAsync(t, url, req)
		return func() (int, JobResult) {
			code, res := answer()
			jobs = append(jobs, sentJob{req.Tenant, req.Kernel, code})
			return code, res
		}
	}
	expect := func(what string, code int, res JobResult, wantCode int, wantStatus string) {
		t.Helper()
		if code != wantCode || (wantStatus != "" && res.Status != wantStatus) {
			t.Fatalf("%s: status %d, result %+v; want %d %q", what, code, res, wantCode, wantStatus)
		}
	}

	// One tenant: a job that never starts, one that starts in time and
	// finishes late, one failed fast after an eviction, and one whose
	// handler answered 504 before that eviction.
	s, hs := newTestServer(t, Config{Cores: 2, Policy: rt.DWS, MaxTenants: 1, QueueDepth: 4, NoEarlyReject: true})
	code, res := send(hs.URL, JobRequest{Tenant: "a", Kernel: "Cholesky", Size: 0.02})()
	expect("warm-up", code, res, http.StatusOK, StatusOK)
	a := s.tenantList()[0]
	hold(s, a)
	code, res = send(hs.URL, JobRequest{Tenant: "a", Kernel: "FFT", Size: 0.02, DeadlineMS: 20})()
	expect("job held past its deadline", code, res, http.StatusGatewayTimeout, "")
	const lateMS = 50
	late := send(hs.URL, JobRequest{Tenant: "a", Kernel: "Serialish", Size: 1.0, DeadlineMS: lateMS})
	waitUntil(t, "the Serialish job is queued", func() bool { return a.queueLen() == 2 })
	s.adm.release(a) // the expired FFT job is resolved, and Serialish (~200 ms) starts
	code, res = late()
	expect("job started in time", code, res, http.StatusOK, StatusOK)
	if res.TotalMS <= lateMS {
		t.Fatalf("the Serialish job took %vms in all, within its %dms deadline; the test needs it late", res.TotalMS, lateMS)
	}
	hold(s, a)
	evicted := send(hs.URL, JobRequest{Tenant: "a", Kernel: "LU", Size: 0.02})
	waitUntil(t, "the LU job is queued", func() bool { return a.queueLen() == 1 })
	code, res = send(hs.URL, JobRequest{Tenant: "a", Kernel: "SOR", Size: 0.02, DeadlineMS: 20})()
	expect("job held past its deadline, then evicted", code, res, http.StatusGatewayTimeout, "")
	s.onDeadProgram(a.prog.Slot(), 0, 0)
	s.adm.release(a)
	code, res = evicted()
	expect("job queued on an evicted tenant", code, res, http.StatusServiceUnavailable, StatusCanceled)
	<-a.exited
	checkVerdicts(t, hs.URL, jobs)

	// Two tenants at the global cap, where a weight-2 arrival sheds
	// bronze's newest queued job. Equal run-time prices make each shed
	// certain. The first victim's handler already answered 504, so it is
	// counted expired, not shed.
	jobs = nil
	s, hs = newTestServer(t, Config{Cores: 2, Policy: rt.DWS, MaxTenants: 2, QueueDepth: 4, GlobalQueueDepth: 3, NoEarlyReject: true})
	code, res = send(hs.URL, JobRequest{Tenant: "bronze", Kernel: "Cholesky", Size: 0.02})()
	expect("bronze warm-up", code, res, http.StatusOK, StatusOK)
	code, res = send(hs.URL, JobRequest{Tenant: "gold", Kernel: "Cholesky", Size: 0.02, Weight: 2})()
	expect("gold warm-up", code, res, http.StatusOK, StatusOK)
	var bronze *tenant
	for _, tn := range s.tenantList() {
		tn.runEWMANanos.Store(int64(10 * time.Millisecond))
		if tn.name == "bronze" {
			bronze = tn
		}
	}
	hold(s, bronze)
	var served []func() (int, JobResult)
	for i, kernel := range []string{"SOR", "Heat"} {
		served = append(served, send(hs.URL, JobRequest{Tenant: "bronze", Kernel: kernel, Size: 0.02}))
		waitUntil(t, "bronze's "+kernel+" job is queued", func() bool { return bronze.queueLen() == i+1 })
	}
	code, res = send(hs.URL, JobRequest{Tenant: "bronze", Kernel: "LU", Size: 0.02, DeadlineMS: 20})()
	expect("bronze job held past its deadline", code, res, http.StatusGatewayTimeout, "")
	code, res = send(hs.URL, JobRequest{Tenant: "gold", Kernel: "FFT", Size: 0.02, Weight: 2})()
	expect("gold at the cap", code, res, http.StatusOK, StatusOK)
	shed := send(hs.URL, JobRequest{Tenant: "bronze", Kernel: "GE", Size: 0.02})
	waitUntil(t, "bronze's GE job is queued", func() bool { return bronze.queueLen() == 3 })
	code, res = send(hs.URL, JobRequest{Tenant: "gold", Kernel: "PNN", Size: 0.02, Weight: 2})()
	expect("gold at the cap again", code, res, http.StatusOK, StatusOK)
	code, res = shed()
	expect("bronze's newest job", code, res, http.StatusTooManyRequests, StatusShed)
	s.adm.release(bronze)
	for _, answer := range served {
		code, res = answer()
		expect("bronze's queued job", code, res, http.StatusOK, StatusOK)
	}
	checkVerdicts(t, hs.URL, jobs)
}

// sentJob is one job a test sent and the HTTP status it answered.
type sentJob struct {
	tenant, kernel string
	code           int
}

// checkVerdicts asserts that each job (one per tenant and kernel) was
// counted once in dws_jobs_total, under the status its HTTP code means.
func checkVerdicts(t *testing.T, url string, jobs []sentJob) {
	t.Helper()
	codeOf := map[string]int{
		StatusOK:       http.StatusOK,
		StatusExpired:  http.StatusGatewayTimeout,
		StatusCanceled: http.StatusServiceUnavailable,
		StatusShed:     http.StatusTooManyRequests,
	}
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	counted := map[string]map[string]float64{} // tenant/kernel → status → count
	fields := strings.NewReplacer(`{tenant="`, " ", `",kernel="`, " ", `",status="`, " ", `"}`, "")
	for sc := bufio.NewScanner(resp.Body); sc.Scan(); {
		var tenant, kernel, status string
		var n float64
		if _, err := fmt.Sscanf(fields.Replace(sc.Text()), "dws_jobs_total %s %s %s %g", &tenant, &kernel, &status, &n); err == nil {
			if counted[tenant+"/"+kernel] == nil {
				counted[tenant+"/"+kernel] = map[string]float64{}
			}
			counted[tenant+"/"+kernel][status] = n
		}
	}
	for _, j := range jobs {
		got := counted[j.tenant+"/"+j.kernel]
		ok := len(got) == 1
		for status, n := range got {
			ok = ok && n == 1 && codeOf[status] == j.code
		}
		if !ok {
			t.Errorf("%s's %s job answered %d, counted %v", j.tenant, j.kernel, j.code, got)
		}
	}
}
