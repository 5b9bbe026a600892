package router

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
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
	// client makes every call to the shard. nameHeader is the X-DWS-Shard
	// value of the answers this shard serves, shared read-only by all.
	client     *shardClient
	nameHeader []string

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

func newShard(spec ShardSpec) (*shard, error) {
	c, err := newShardClient(spec.URL)
	if err != nil {
		return nil, fmt.Errorf("router: shard %s: %w", spec.Name, err)
	}
	return &shard{name: spec.Name, url: spec.URL, client: c, nameHeader: []string{spec.Name}}, nil
}

func (s *shard) healthy() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.ejected
}

// probeOnce probes the shard and applies the breaker transitions using the
// router's thresholds. Returns true when the shard's admission status
// flipped (for logging and the health gauge).
func (s *shard) probeOnce(ejectAfter, readmitAfter int) bool {
	start := time.Now()
	err := s.get(context.Background(), "/healthz", nil)
	latency := time.Since(start)
	var backlog float64
	haveBacklog := false
	if err == nil {
		// The backlog gauge is best effort: a failed scrape keeps the last.
		_ = s.get(context.Background(), "/metrics", func(body []byte) error {
			backlog, haveBacklog = parseGauge(bytes.NewReader(body), "dws_global_queue_depth")
			return nil
		})
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	s.probes++
	if err != nil {
		s.fails++
		s.consecFails++
		s.consecOKs = 0
		s.lastErr = err.Error()
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

// get GETs path from the shard within probeTimeout, and hands the body of
// a 200 answer to read (nil: the status is all that counts).
func (s *shard) get(ctx context.Context, path string, read func(body []byte) error) error {
	ctx, cancel := context.WithTimeout(ctx, probeTimeout)
	defer cancel()
	a, err := s.client.call(ctx, http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	defer s.client.done(a)
	if a.status != http.StatusOK {
		return fmt.Errorf("GET %s: %d %s", path, a.status, http.StatusText(a.status))
	}
	if read == nil {
		return nil
	}
	return read(a.body)
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
