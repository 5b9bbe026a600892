package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"time"

	"dws/internal/server"
)

// outcome is what one request came to, from the client's side.
type outcome uint8

const (
	outcomeOK      outcome = iota // 200, a JobResult with status ok that echoes the request
	outcomeRefused                // a well-formed 429: reject reason and Retry-After ≥ 1
	outcomeExpired                // 504 for a request that carried its own deadline
	outcomeFailed                 // anything else: the protocol was broken
	numOutcomes
)

// classify decides a request's outcome from the answer. The JobResult is
// returned for 200s that decode.
func classify(code int, h http.Header, body []byte, err error, want server.JobRequest) (outcome, server.JobResult) {
	var res server.JobResult
	if err != nil {
		return outcomeFailed, res
	}
	switch code {
	case http.StatusOK:
		if json.Unmarshal(body, &res) != nil || res.Status != server.StatusOK ||
			res.Kernel != want.Kernel || res.Tenant != want.Tenant || res.Size != want.Size {
			return outcomeFailed, res
		}
		return outcomeOK, res
	case http.StatusTooManyRequests:
		retry, err := strconv.Atoi(h.Get("Retry-After"))
		if err != nil || retry < 1 || h.Get(server.RejectReasonHeader) == "" {
			return outcomeFailed, res
		}
		return outcomeRefused, res
	case http.StatusGatewayTimeout:
		if want.DeadlineMS > 0 {
			return outcomeExpired, res
		}
	}
	return outcomeFailed, res
}

// sample is one measured request, kept small: at 20 000 answers a second
// the samples are the largest thing on the heap, and what the benchmark
// keeps for itself counts into the peak_rss_mb it reports.
type sample struct {
	end         int64   // ns since the phase began
	ms          float32 // latency: request handed to net/http → response read
	outcome     outcome
	spilled     bool // the answer carried X-DWS-Spills: 1
	earlyReject bool // a refusal whose X-DWS-Reject-Reason is early_reject
}

// jobTimes is what a JobResult says of where the time went, in ms. Kept per
// sample on traced runs only (the untraced metrics do not use it).
type jobTimes struct{ queue, run, total float32 }

// client is one closed-loop submitter on one keep-alive connection.
type client struct {
	spec   clientSpec
	tenant string
	url    string
	hc     *http.Client
	sizes  []float64 // cycled; compiled from the seed by scenario.Spec.Compile
	next   int
	rng    *rand.Rand
	rec    *recorder // nil unless the stack is traced

	// Totals since the client was made, for the end-of-run ledger.
	attempted int
	counts    [numOutcomes]int
}

func newClient(spec clientSpec, tenant, url string, sizes []float64, seed int64, rec *recorder) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}
	return &client{
		spec: spec, tenant: tenant, url: url + "/v1/jobs", sizes: sizes, rec: rec,
		hc:  &http.Client{Transport: tr},
		rng: rand.New(rand.NewSource(seed)),
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// flow is the client's key in the span recorder (see flowOf).
func (c *client) flow() string { return c.tenant + "/" + c.spec.kernel }

// submit sends one job and reads the whole answer. The clock runs from just
// before the request is handed to net/http until the body has been read.
func (c *client) submit(epoch time.Time) (sample, server.JobResult) {
	want := server.JobRequest{
		Tenant: c.tenant, Kernel: c.spec.kernel, Size: c.sizes[c.next%len(c.sizes)], DeadlineMS: c.spec.deadlineMS,
	}
	c.next++
	payload, err := json.Marshal(want)
	if err != nil {
		panic(err) // a struct of strings and numbers always marshals
	}
	req, err := http.NewRequest(http.MethodPost, c.url, bytes.NewReader(payload))
	if err != nil {
		panic(err) // the URL is the benchmark's own listener
	}
	req.Header.Set("Content-Type", "application/json")

	var (
		code   int
		header http.Header
		body   []byte
	)
	t0 := time.Now()
	resp, err := c.hc.Do(req)
	if err == nil {
		code, header = resp.StatusCode, resp.Header
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	t1 := time.Now()

	out, res := classify(code, header, body, err, want)
	c.attempted++
	c.counts[out]++
	if c.rec != nil && c.rec.on.Load() {
		c.rec.add("client", c.flow(), span{Start: c.rec.since(t0), End: c.rec.since(t1), Status: code})
	}
	return sample{
		end: int64(t1.Sub(epoch)), ms: float32(float64(t1.Sub(t0)) / 1e6),
		outcome: out, spilled: header.Get("X-DWS-Spills") == "1",
		earlyReject: out == outcomeRefused && header.Get(server.RejectReasonHeader) == "early_reject",
	}, res
}

// phase is what one client did between a start and a stop.
type phase struct {
	samples []sample
	times   []jobTimes  // one per sample on a traced run, else nil
	sched   schedCounts // sum of JobResult.stats over ok jobs
	lagsUS  []float64   // paced clients: slept − intended, per think pause
}

// loop submits until n requests are done (n > 0) or the deadline passes
// (n == 0), thinking between answers when the spec says so.
func (c *client) loop(epoch time.Time, n int, deadline time.Time) phase {
	var p phase
	for i := 0; (n > 0 && i < n) || (n == 0 && time.Now().Before(deadline)); i++ {
		s, res := c.submit(epoch)
		p.samples = append(p.samples, s)
		if c.rec != nil {
			p.times = append(p.times, jobTimes{float32(res.QueueMS), float32(res.RunMS), float32(res.TotalMS)})
		}
		if s.outcome == outcomeOK {
			p.sched.add(res.Stats)
		}
		if lo, hi := c.spec.thinkMS[0], c.spec.thinkMS[1]; hi > 0 {
			want := time.Duration((lo + c.rng.Float64()*(hi-lo)) * float64(time.Millisecond))
			t := time.Now()
			time.Sleep(want)
			p.lagsUS = append(p.lagsUS, float64(time.Since(t)-want)/1e3)
		}
	}
	return p
}

// schedCounts sums JobResult.stats counters over jobs, in schedNames order.
type schedCounts [len(schedNames)]int64

// schedNames are the counters the rt.<name>_per_job metrics report.
var schedNames = [...]string{"steals", "failed_steals", "sleeps", "wakes", "claims", "reclaims", "evictions"}

func (a *schedCounts) add(s server.Stats) {
	for i, v := range [len(schedNames)]int64{s.Steals, s.FailedSteals, s.Sleeps, s.Wakes, s.Claims, s.Reclaims, s.Evictions} {
		a[i] += v
	}
}
