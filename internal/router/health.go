package router

import (
	"bufio"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
)

// shard is one federated dwsd instance plus its probe state: a small
// circuit breaker (consecutive-failure ejection, half-open re-admission)
// over periodic GET /healthz probes, with the shard's global queue depth
// scraped from its Prometheus endpoint and reported on /v1/shards.
type shard struct {
	name string
	url  string

	mu sync.Mutex
	// ejected opens the circuit: the shard takes no routed work. A
	// draining dwsd answers /healthz with 503, so SIGTERM'd shards eject
	// within EjectAfter probe periods without any control-plane wiring.
	ejected bool
	// consecFails and consecOKs drive ejection and half-open re-admission:
	// an ejected shard that answers one probe is half-open (still taking no
	// work) and must answer ReadmitAfter in a row to rejoin.
	consecFails int
	consecOKs   int
	// latEWMA is the probe latency EWMA in seconds (α = 1/4, the same fold
	// the server's admission uses for run times).
	latEWMA float64
	// backlog is dws_global_queue_depth at the last successful probe.
	backlog float64
	lastErr string
	probes  int64
	fails   int64
}

func (s *shard) healthy() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.ejected
}

// probeOnce probes the shard and applies the breaker transitions using the
// router's thresholds. Returns true when the shard's admission status
// flipped (for logging and the health gauge).
func (s *shard) probeOnce(client *http.Client, ejectAfter, readmitAfter int) bool {
	start := time.Now()
	ok, errMsg := probeHealthz(client, s.url)
	latency := time.Since(start)
	var backlog float64
	haveBacklog := false
	if ok {
		if v, found := scrapeShardGauge(client, s.url, "dws_global_queue_depth"); found {
			backlog, haveBacklog = v, true
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	s.probes++
	if !ok {
		s.fails++
		s.consecFails++
		s.consecOKs = 0
		s.lastErr = errMsg
		if !s.ejected && s.consecFails >= ejectAfter {
			s.ejected = true
			return true
		}
		return false
	}
	s.consecFails = 0
	s.lastErr = ""
	sec := latency.Seconds()
	if s.latEWMA == 0 {
		s.latEWMA = sec
	} else {
		s.latEWMA += (sec - s.latEWMA) / 4
	}
	if haveBacklog {
		s.backlog = backlog
	}
	if s.ejected {
		s.consecOKs++
		if s.consecOKs >= readmitAfter {
			s.ejected = false
			s.consecOKs = 0
			return true
		}
	}
	return false
}

// markFailure records a forwarding failure (connection refused mid-proxy)
// as probe evidence, so a shard that dies between probe ticks ejects on
// the data path instead of eating the whole spill budget until the next
// tick.
func (s *shard) markFailure(ejectAfter int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.consecFails++
	s.consecOKs = 0
	if !s.ejected && s.consecFails >= ejectAfter {
		s.ejected = true
		return true
	}
	return false
}

// probeHealthz reports whether the shard answers GET /healthz with 200.
func probeHealthz(client *http.Client, baseURL string) (bool, string) {
	resp, err := client.Get(baseURL + "/healthz")
	if err != nil {
		return false, err.Error()
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return false, resp.Status
	}
	return true, ""
}

// scrapeShardGauge fetches the shard's Prometheus exposition and extracts
// one unlabelled sample value.
func scrapeShardGauge(client *http.Client, baseURL, name string) (float64, bool) {
	resp, err := client.Get(baseURL + "/metrics")
	if err != nil {
		return 0, false
	}
	defer resp.Body.Close()
	v, found := parseGauge(resp.Body, name)
	io.Copy(io.Discard, resp.Body)
	return v, found
}

// parseGauge scans Prometheus text exposition for an unlabelled sample
// line "name value".
func parseGauge(r io.Reader, name string) (float64, bool) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, name) {
			continue
		}
		rest := line[len(name):]
		if len(rest) == 0 || rest[0] != ' ' {
			continue // a label set or a longer metric name
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err != nil {
			return 0, false
		}
		return v, true
	}
	return 0, false
}
