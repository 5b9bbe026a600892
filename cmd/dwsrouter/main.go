// Command dwsrouter is the federation front tier: an HTTP proxy routing
// tenant jobs across N dwsd shards. Tenants are placed by a bounded-load
// consistent-hash ring (sticky: one tenant, one home shard — its WFQ
// history and QoS state live in one place), refusals with a spillable
// reject reason (overload, shed, queue_full) ride over to the tenant's
// next-preferred healthy sibling under a bounded spill budget, and a
// per-shard health prober ejects sick shards from routing until they
// answer probes again.
//
// Endpoints mirror dwsd — POST /v1/jobs, GET /v1/tenants, DELETE
// /v1/tenants/{name}, GET /v1/info, GET /healthz, GET /metrics — plus
// GET /v1/shards for the prober's live view, so existing load generators
// drive the federation as if it were one big dwsd.
//
// Example:
//
//	dwsd -addr :8081 & dwsd -addr :8082 & dwsd -addr :8083 &
//	dwsrouter -addr :8080 \
//	  -shards s0=http://localhost:8081,s1=http://localhost:8082,s2=http://localhost:8083 \
//	  -spill next -spill-budget 2
//	curl -s localhost:8080/v1/jobs -d '{"tenant":"alice","kernel":"FFT"}'
//
// SIGINT/SIGTERM drains gracefully: new jobs get 503, in-flight proxied
// jobs finish, then the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dws/internal/router"
)

// parseShards resolves the -shards flag: a comma-separated list of
// "name=url" members (bare "url" entries get positional names s0, s1, …).
// Names are the ring identity — reusing one is a configuration error, not
// a silent overwrite.
func parseShards(spec string) ([]router.ShardSpec, error) {
	var out []router.ShardSpec
	seen := map[string]bool{}
	for i, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		var s router.ShardSpec
		if name, url, ok := strings.Cut(part, "="); ok && !strings.Contains(name, "/") {
			s = router.ShardSpec{Name: strings.TrimSpace(name), URL: strings.TrimSpace(url)}
		} else {
			s = router.ShardSpec{Name: fmt.Sprintf("s%d", i), URL: part}
		}
		if s.Name == "" || s.URL == "" {
			return nil, fmt.Errorf("shard %q: want name=url or url", part)
		}
		if !strings.HasPrefix(s.URL, "http://") && !strings.HasPrefix(s.URL, "https://") {
			return nil, fmt.Errorf("shard %q: url must be http(s)", part)
		}
		if seen[s.Name] {
			return nil, fmt.Errorf("shard name %q repeats", s.Name)
		}
		seen[s.Name] = true
		out = append(out, s)
	}
	if len(out) == 0 {
		return nil, errors.New("-shards lists no members")
	}
	return out, nil
}

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		shards      = flag.String("shards", "", "comma-separated shard members, name=url or url (required)")
		spill       = flag.String("spill", router.SpillNext, "spill policy on shard refusal: none|random|next")
		spillBudget = flag.Int("spill-budget", 2, "max redirect hops per job")
		probePeriod = flag.Duration("probe-period", time.Second, "health probe interval")
		ejectAfter  = flag.Int("eject-after", 3, "consecutive probe failures before a shard is ejected")
		readmit     = flag.Int("readmit-after", 2, "consecutive probe successes before an ejected shard rejoins")
		drain       = flag.Duration("drain-timeout", 30*time.Second, "graceful drain budget on SIGTERM")
	)
	flag.Parse()

	specs, err := parseShards(*shards)
	if err != nil {
		log.Fatalf("dwsrouter: %v", err)
	}
	rt, err := router.New(router.Config{
		Shards:       specs,
		Spill:        *spill,
		SpillBudget:  *spillBudget,
		ProbePeriod:  *probePeriod,
		EjectAfter:   *ejectAfter,
		ReadmitAfter: *readmit,
		Logf:         log.Printf,
	})
	if err != nil {
		log.Fatalf("dwsrouter: %v", err)
	}

	hs := &http.Server{Addr: *addr, Handler: rt.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.ListenAndServe() }()
	log.Printf("dwsrouter: serving on %s (shards=%d spill=%s budget=%d probe=%v)",
		*addr, len(specs), *spill, *spillBudget, *probePeriod)

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errCh:
		log.Fatalf("dwsrouter: %v", err)
	case sig := <-sigCh:
		log.Printf("dwsrouter: %v — draining (budget %v)", sig, *drain)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := rt.Shutdown(ctx); err != nil {
		log.Printf("dwsrouter: drain incomplete: %v", err)
	}
	if err := hs.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("dwsrouter: http shutdown: %v", err)
	}
	fmt.Println("dwsrouter: drained, bye")
}
