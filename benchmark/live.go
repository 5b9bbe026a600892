package main

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// setupReps is how many times a run sets the workload up; setup_s is the
// median and the last set-up is the one measured on.
const setupReps = 5

// liveRun is one live workload, set up and warm.
type liveRun struct {
	w       *liveSpec
	st      *stack
	clients [2]*client
}

func (r *liveRun) close() {
	for _, c := range r.clients {
		if c != nil {
			c.close()
		}
	}
	r.st.close()
}

// setUp builds the stack, makes the clients and their tenants, finds the
// spill client's tenant on routed workloads, and sends the fixed-count
// warm-up.
func setUp(w *liveSpec, seed int64, rec *recorder) (*liveRun, error) {
	st, err := buildStack(w, rec)
	if err != nil {
		return nil, err
	}
	r := &liveRun{w: w, st: st}
	rng := rand.New(rand.NewSource(seed))
	suffix := fmt.Sprintf("%06x", rng.Int63n(1<<24))
	for i := range r.clients {
		sizes, err := sizeSequence(seed+int64(i), w.clients[i])
		if err != nil {
			r.close()
			return nil, err
		}
		tenant := string(rune('a'+i)) + "-" + suffix
		if w.sharedTenant {
			tenant = "t-" + suffix
		}
		r.clients[i] = newClient(w.clients[i], tenant, st.url(), sizes, rng.Int63(), rec)
	}
	if st.router != nil {
		if err := r.findSpillTenant(suffix); err != nil {
			r.close()
			return nil, err
		}
	}

	var wg sync.WaitGroup
	for _, c := range r.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.loop(time.Now(), c.spec.warmup, time.Time{})
		}()
	}
	wg.Wait()
	for i, c := range r.clients {
		if c.counts[outcomeFailed] > 0 {
			r.close()
			return nil, fmt.Errorf("%s: %d of client %c's warm-up requests failed", w.name, c.counts[outcomeFailed], 'A'+i)
		}
	}
	return r, nil
}

// findSpillTenant gives client B a tenant whose sticky home is the shard
// client A's tenant already fills. It learns homes the way any client can:
// submit a job and read X-DWS-Spills. A candidate that was served without a
// hop sits on the free shard; it is deleted again (freeing the slot and the
// ring assignment) and the next name is tried.
func (r *liveRun) findSpillTenant(suffix string) error {
	a, b := r.clients[0], r.clients[1]
	if s, _ := a.submit(time.Now()); s.outcome != outcomeOK || s.spilled {
		return fmt.Errorf("%s: client A's first job was not served by its home shard", r.w.name)
	}
	for k := 0; k < 64; k++ {
		b.tenant = fmt.Sprintf("b%d-%s", k, suffix)
		s, _ := b.submit(time.Now())
		if s.outcome != outcomeOK {
			return fmt.Errorf("%s: probing tenant %s failed", r.w.name, b.tenant)
		}
		if s.spilled {
			return nil
		}
		req, err := http.NewRequest(http.MethodDelete, r.st.url()+"/v1/tenants/"+b.tenant, nil)
		if err != nil {
			return err
		}
		resp, err := b.hc.Do(req)
		if err != nil {
			return fmt.Errorf("%s: deleting probe tenant: %w", r.w.name, err)
		}
		_, _ = io.Copy(io.Discard, resp.Body) // drained so the connection is reused
		resp.Body.Close()
		if resp.StatusCode != http.StatusNoContent {
			return fmt.Errorf("%s: deleting probe tenant %s: %s", r.w.name, b.tenant, resp.Status)
		}
	}
	return fmt.Errorf("%s: no candidate tenant is homed on client A's shard", r.w.name)
}

// measure runs both clients for d and returns what each did.
func (r *liveRun) measure(d time.Duration) [2]phase {
	var out [2]phase
	var wg sync.WaitGroup
	epoch := time.Now()
	for i, c := range r.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i] = c.loop(epoch, 0, epoch.Add(d))
		}()
	}
	wg.Wait()
	return out
}

// ledger is what the program's own /metrics say.
type ledger struct {
	okJobs   float64 // Σ dws_jobs_total{status="ok"} over the shards
	spills   float64 // Σ dws_router_spills_total
	scrapeMS float64 // how long the first shard's scrape took
}

func (r *liveRun) scrape() (ledger, error) {
	var l ledger
	hc := &http.Client{}
	defer hc.CloseIdleConnections()
	get := func(url string) (string, error) {
		resp, err := hc.Get(url + "/metrics")
		if err != nil {
			return "", err
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			return "", fmt.Errorf("GET %s/metrics: %s %v", url, resp.Status, err)
		}
		return string(b), nil
	}
	for i, sh := range r.st.shards {
		t := time.Now()
		text, err := get(sh.ln.url)
		if err != nil {
			return l, err
		}
		if i == 0 {
			l.scrapeMS = float64(time.Since(t)) / 1e6
		}
		l.okJobs += sumSeries(text, "dws_jobs_total", `status="ok"`)
	}
	if r.st.front != nil {
		text, err := get(r.st.front.url)
		if err != nil {
			return l, err
		}
		l.spills = sumSeries(text, "dws_router_spills_total", "")
	}
	return l, nil
}

// sumSeries adds up the samples of one metric family in a Prometheus text
// exposition, keeping the series whose label set contains label.
func sumSeries(text, name, label string) float64 {
	var sum float64
	for _, line := range strings.Split(text, "\n") {
		rest, ok := strings.CutPrefix(line, name)
		if !ok || (rest != "" && rest[0] != '{' && rest[0] != ' ') || !strings.Contains(rest, label) {
			continue
		}
		if i := strings.LastIndexByte(rest, ' '); i >= 0 {
			v, _ := strconv.ParseFloat(rest[i+1:], 64)
			sum += v
		}
	}
	return sum
}

// pick returns the latencies (ms) of the samples of the clients in mask
// that keep says yes to.
func pick(ph [2]phase, mask int, keep func(sample) bool) []float64 {
	var out []float64
	for i := range ph {
		if mask&(1<<i) == 0 {
			continue
		}
		for _, s := range ph[i].samples {
			if keep(s) {
				out = append(out, float64(s.ms))
			}
		}
	}
	return out
}

// pickTimes returns f of the JobResult times of the ok jobs of the clients
// in mask (traced runs only).
func pickTimes(ph [2]phase, mask int, f func(jobTimes) float32) []float64 {
	var out []float64
	for i := range ph {
		if mask&(1<<i) == 0 {
			continue
		}
		for k, t := range ph[i].times {
			if isOK(ph[i].samples[k]) {
				out = append(out, float64(f(t)))
			}
		}
	}
	return out
}

func isOK(s sample) bool      { return s.outcome == outcomeOK }
func isRefused(s sample) bool { return s.outcome == outcomeRefused }

// throughput is the median (and quartiles) of the 1-second window counts of
// the ok jobs of the clients in mask.
func throughput(ph [2]phase, mask int, d time.Duration) (q1, med, q3 float64, windows int) {
	var ends []int64
	for i := range ph {
		for _, s := range ph[i].samples {
			if mask&(1<<i) != 0 && isOK(s) {
				ends = append(ends, s.end)
			}
		}
	}
	counts := windowCounts(ends, int64(d), int64(time.Second))
	q1, med, q3 = quartiles(counts)
	return q1, med, q3, len(counts)
}

// liveData is everything one live run observed, before any arithmetic.
type liveData struct {
	setups        []float64 // seconds, one per set-up
	d             time.Duration
	before, after ledger
	u0, u1        usage    // around the untraced interval
	ph, traced    [2]phase // traced is empty unless the run was traced
	peakRSSMB     float64  // when the clients stopped, before any arithmetic on the samples
}

// observe sets the workload up setupReps times, measures on the last
// set-up, and leaves nothing running.
func observe(w *liveSpec, opt options, rec *recorder) (*liveRun, *liveData, error) {
	data := &liveData{d: time.Duration(opt.seconds * float64(time.Second))}
	if opt.trace {
		data.d /= 2
	}
	var run *liveRun
	for i := 0; i < setupReps; i++ {
		if run != nil {
			run.close()
		}
		t := time.Now()
		var err error
		if run, err = setUp(w, opt.seed, rec); err != nil {
			return nil, nil, err
		}
		data.setups = append(data.setups, time.Since(t).Seconds())
	}
	defer run.close()

	var err error
	if data.before, err = run.scrape(); err != nil {
		return nil, nil, err
	}
	data.u0 = readUsage()
	data.ph = run.measure(data.d)
	data.u1 = readUsage()
	if opt.trace {
		rec.on.Store(true)
		data.traced = run.measure(data.d)
		rec.on.Store(false)
	}
	data.peakRSSMB = peakRSSMB()
	if data.after, err = run.scrape(); err != nil {
		return nil, nil, err
	}
	return run, data, nil
}

// runLive runs one live workload and derives its metrics: the end-to-end
// set from one untraced interval of opt.seconds, or — traced — the
// per-layer set from an untraced half (what the responses report, and the
// reference rate) followed by a traced half (the spans).
func runLive(w *liveSpec, opt options) (*result, error) {
	res := newResult()
	var rec *recorder
	if opt.trace {
		rec = newRecorder()
	}
	calibStart := calibrate()
	run, data, err := observe(w, opt, rec)
	if err != nil {
		return nil, err
	}
	res.setWitnesses(calibStart, calibrate(), opt.trace, data.u0, data.u1)
	ph, d := data.ph, data.d

	// The ledger: every request has exactly one outcome, the shards served
	// what the clients saw served, and the router spilled what client B sent.
	var okAll, expired, spilledOK int
	for i, c := range run.clients {
		for _, p := range [][2]phase{ph, data.traced} {
			for _, s := range p[i].samples {
				res.attempted++
				switch s.outcome {
				case outcomeFailed:
					res.fail("client %c: a request broke the protocol", 'A'+i)
				case outcomeExpired:
					expired++
				case outcomeOK:
					okAll++
					if s.spilled {
						spilledOK++
					}
					if run.st.router != nil && s.spilled != (i == 1) {
						res.fail("client %c: X-DWS-Spills says spilled=%v", 'A'+i, s.spilled)
					}
				}
			}
		}
		sum := 0
		for _, k := range c.counts {
			sum += k
		}
		if sum != c.attempted {
			res.fail("client %c: attempted %d requests but counted %d outcomes", 'A'+i, c.attempted, sum)
		}
	}
	// A 504'd job may still run to completion behind the client's back and
	// count as ok on the shard, so expiries widen the match by their number.
	if served := int(data.after.okJobs - data.before.okJobs); served < okAll || served > okAll+expired {
		res.fail("shards counted %d ok jobs, clients saw %d (and %d expiries)", served, okAll, expired)
	}
	spills := data.after.spills - data.before.spills
	if run.st.router != nil && int(spills) != spilledOK {
		res.fail("router counted %.0f spills, client B was served %d spilled jobs", spills, spilledOK)
	}

	// A job, for the per-job costs, is a request the program answered as it
	// should: served, or honestly refused or expired.
	okJobs := float64(len(pick(ph, clientA|clientB, isOK)))
	answered := float64(len(pick(ph, clientA|clientB, func(s sample) bool { return s.outcome != outcomeFailed })))
	lat := pick(ph, w.latencyRole, isOK)
	q1, jobsPerS, q3, windows := throughput(ph, w.throughputRole, d)
	if !opt.trace {
		res.set("setup_s", median(data.setups), fmt.Sprintf("median of %d set-ups", len(data.setups)))
		res.set("jobs_per_s", jobsPerS, fmt.Sprintf("q1 %.0f q3 %.0f of %d windows", q1, q3, windows))
		res.set("latency_p50_ms", median(lat), fmt.Sprintf("n=%d", len(lat)))
		res.set("cpu_us_per_job", ratio(data.u1.cpuUS-data.u0.cpuUS, answered), fmt.Sprintf("over %.0f answered requests", answered))
		res.set("allocs_per_job", ratio(float64(data.u1.mallocs-data.u0.mallocs), answered), "")
		res.set("peak_rss_mb", data.peakRSSMB, "")
		return res, nil
	}
	res.latencyP50MS = median(lat)
	res.set("latency_p99_ms", tail(lat), fmt.Sprintf("p%g of n=%d", tailPercentile(len(lat)), len(lat)))

	// What the responses and /metrics report, from the untraced half.
	spillLat := pick(ph, clientA|clientB, func(s sample) bool { return isOK(s) && s.spilled })
	refusalLat := pick(ph, clientA|clientB, isRefused)
	res.set("spill_latency_p50_ms", median(spillLat), fmt.Sprintf("n=%d", len(spillLat)))
	res.set("refusal_p50_ms", median(refusalLat), fmt.Sprintf("n=%d", len(refusalLat)))
	res.set("server.refusal_p99_ms", tail(refusalLat), fmt.Sprintf("p%g", tailPercentile(len(refusalLat))))
	var attempted, deadlined, early, expiredHalf, failedHalf float64
	var sched schedCounts
	var lags []float64
	for i := range ph {
		attempted += float64(len(ph[i].samples))
		if w.clients[i].deadlineMS > 0 {
			deadlined += float64(len(ph[i].samples))
		}
		for _, s := range ph[i].samples {
			switch {
			case s.earlyReject:
				early++
			case s.outcome == outcomeExpired:
				expiredHalf++
			case s.outcome == outcomeFailed:
				failedHalf++
			}
		}
		lags = append(lags, ph[i].lagsUS...)
		for k, v := range ph[i].sched {
			sched[k] += v
		}
	}
	res.set("failed_share", ratio(failedHalf, attempted), "")
	res.set("server.early_reject_share", ratio(early, deadlined), "of the requests that carried a deadline")
	res.set("server.expired_share", ratio(expiredHalf, deadlined), "")
	res.set("server.queue_ms_p50", median(pickTimes(ph, clientA|clientB, func(t jobTimes) float32 { return t.queue })), "")
	res.set("server.metrics_scrape_ms", data.after.scrapeMS, "")
	res.set("router.spills_per_spilled_job", ratio(spills, float64(spilledOK)), "")
	runMS := func(t jobTimes) float32 { return t.run }
	runB := pickTimes(ph, clientB, runMS)
	res.set("rt.run_ms_p50.hog", median(pickTimes(ph, clientA, runMS)), "client A")
	res.set("rt.run_ms_p50.bursty", median(runB), "client B")
	res.set("rt.run_ms_p99.bursty", tail(runB), fmt.Sprintf("client B, p%g", tailPercentile(len(runB))))
	for k, name := range schedNames {
		res.set("rt."+name+"_per_job", ratio(float64(sched[k]), okJobs), "")
	}
	res.set("rt.steal_success_ratio", ratio(float64(sched[0]), float64(sched[0]+sched[1])), "steals ÷ (steals + failed steals)")
	res.set("loadgen.lag_p99_us", tail(lags), fmt.Sprintf("p%g of n=%d", tailPercentile(len(lags)), len(lags)))

	// What the spans say, from the traced half.
	_, tracedJobsPerS, _, _ := throughput(data.traced, w.throughputRole, d)
	res.set("trace.overhead_share", 1-ratio(tracedJobsPerS, jobsPerS),
		fmt.Sprintf("traced %.0f vs untraced %.0f jobs/s", tracedJobsPerS, jobsPerS))
	reqs, err := run.join(rec, data.traced)
	if err != nil {
		res.fail("%v", err)
	}
	spanMetrics(res, w, reqs)
	if err := writeTrace(filepath.Join(outDir, "trace-"+w.name+".jsonl"), reqs); err != nil {
		return nil, err
	}
	return res, nil
}

// join lines the traced half's spans up into requests: the i-th span of a
// client's flow at each layer it crossed, and the i-th sample the client
// recorded.
func (r *liveRun) join(rec *recorder, traced [2]phase) ([]tracedRequest, error) {
	var reqs []tracedRequest
	for i, c := range r.clients {
		flow := c.flow()
		cs := rec.of("client", flow)
		if len(cs) != len(traced[i].samples) {
			return nil, fmt.Errorf("trace: client %c recorded %d spans for %d requests", 'A'+i, len(cs), len(traced[i].samples))
		}
		var rs []span
		if r.st.router != nil {
			if rs = rec.of("router", flow); len(rs) != len(cs) {
				return nil, fmt.Errorf("trace: the router saw %d of client %c's %d requests", len(rs), 'A'+i, len(cs))
			}
		}
		// The shards the flow crosses, in the order it crosses them.
		type visited struct {
			name  string
			spans []span
		}
		var vs []visited
		for _, sh := range r.st.shards {
			if ss := rec.of("shard:"+sh.name, flow); len(ss) > 0 {
				if len(ss) != len(cs) {
					return nil, fmt.Errorf("trace: shard %s saw %d of client %c's %d requests", sh.name, len(ss), 'A'+i, len(cs))
				}
				vs = append(vs, visited{"shard:" + sh.name, ss})
			}
		}
		sort.Slice(vs, func(a, b int) bool { return vs[a].spans[0].Start < vs[b].spans[0].Start })
		for k := range cs {
			tr := tracedRequest{
				flow: flow, who: i, index: k, client: cs[k],
				jobNS: int64(float64(traced[i].times[k].total) * 1e6),
			}
			if rs != nil {
				tr.router = &rs[k]
			}
			for _, v := range vs {
				tr.shards = append(tr.shards, v.spans[k])
				tr.names = append(tr.names, v.name)
			}
			reqs = append(reqs, tr)
		}
	}
	return reqs, nil
}

// spanMetrics derives the per-layer span metrics from joined requests.
func spanMetrics(res *result, w *liveSpec, reqs []tracedRequest) {
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	var clientSelf, serverSpan, serverSelf, refuseSpan []float64
	// The account of a latency, by hops taken: each layer's self time over
	// the served requests that took the path, beside their client spans.
	// Hop 0 is kept for the latency role's clients, hop 1 for the spilled.
	type account struct{ client, clientSelf, routerSelf, refusedHop, serverSpan, serverSelf, job []float64 }
	var acct [2]account
	for _, tr := range reqs {
		children := tr.shards
		if tr.router != nil {
			children = []span{*tr.router}
		}
		cSelf := us(selfTime(tr.client, children...))
		clientSelf = append(clientSelf, cSelf)
		hops := len(tr.shards) - 1
		if hops < 0 || hops > 1 {
			continue
		}
		last := tr.shards[hops]
		switch last.Status {
		case http.StatusTooManyRequests:
			refuseSpan = append(refuseSpan, us(last.dur()))
		case http.StatusOK:
			serverSpan = append(serverSpan, us(last.dur()))
			serverSelf = append(serverSelf, us(last.dur()-tr.jobNS))
			if hops == 0 && w.latencyRole&(1<<tr.who) == 0 {
				continue
			}
			a := &acct[hops]
			a.client = append(a.client, us(tr.client.dur()))
			a.clientSelf = append(a.clientSelf, cSelf)
			a.serverSpan = append(a.serverSpan, us(last.dur()))
			a.serverSelf = append(a.serverSelf, us(last.dur()-tr.jobNS))
			a.job = append(a.job, us(tr.jobNS))
			if tr.router != nil {
				a.routerSelf = append(a.routerSelf, us(selfTime(*tr.router, tr.shards...)))
			}
			if hops == 1 {
				a.refusedHop = append(a.refusedHop, us(tr.shards[0].dur()))
			}
		}
	}
	res.set("loadgen.client_self_us", median(clientSelf), fmt.Sprintf("n=%d", len(clientSelf)))
	res.set("server.span_p50_us", median(serverSpan), fmt.Sprintf("n=%d", len(serverSpan)))
	res.set("server.self_p50_us", median(serverSelf), "shard span − total_ms")
	res.set("server.refuse_span_p50_us", median(refuseSpan), fmt.Sprintf("n=%d", len(refuseSpan)))
	h0, h1 := acct[0], acct[1]
	res.set("router.self_hop0_us", median(h0.routerSelf), fmt.Sprintf("n=%d", len(h0.routerSelf)))
	res.set("router.self_hop1_us", median(h1.routerSelf), fmt.Sprintf("n=%d", len(h1.routerSelf)))
	res.set("router.refused_hop_us", median(h1.refusedHop), "the 503 shard span")
	res.set("trace.accounted_share",
		ratio(median(h0.clientSelf)+median(h0.routerSelf)+median(h0.serverSelf)+median(h0.job), median(h0.client)),
		"hop 0: client self + router self + server self + total_ms medians ÷ client span median")
	res.set("trace.accounted_share_hop1",
		ratio(median(h1.clientSelf)+median(h1.routerSelf)+median(h1.refusedHop)+median(h1.serverSpan), median(h1.client)),
		"hop 1: client self + router self + both shard spans ÷ client span median")
}
