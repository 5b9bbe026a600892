// Command dwsd is the DWS job-serving daemon: a multi-tenant HTTP service
// hosting one live rt.System. Tenants submit kernel jobs over POST
// /v1/jobs; each tenant is a co-running work-stealing program, so served
// jobs contend for cores under the configured policy exactly as the
// paper's co-running programs do.
//
// Endpoints: POST /v1/jobs, GET /v1/tenants, DELETE /v1/tenants/{name},
// GET /v1/info, GET /healthz, GET /metrics (Prometheus text).
//
// Example:
//
//	dwsd -addr :8080 -cores 8 -policy DWS -tenants 4
//	curl -s localhost:8080/v1/jobs -d '{"tenant":"alice","kernel":"FFT","size":0.25}'
//
// SIGINT/SIGTERM drains gracefully: admission stops, queued jobs finish,
// then the process exits.
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
	"runtime"
	"syscall"
	"time"

	"dws/internal/rt"
	"dws/internal/server"
	"dws/internal/topo"
)

// topologyFromFlag resolves the -socket-size flag: 0 keeps the flat
// (locality-free) map, a negative value auto-detects the host's sockets
// from sysfs (degrading to flat when the tree is absent), and a positive
// value models uniform sockets of that many cores.
func topologyFromFlag(socketSize, cores int) *topo.Topology {
	switch {
	case socketSize == 0:
		return nil
	case socketSize < 0:
		return topo.Detect(cores)
	default:
		return topo.Uniform(cores, socketSize)
	}
}

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		cores    = flag.Int("cores", 8, "core slots k (sets GOMAXPROCS)")
		policy   = flag.String("policy", "DWS", "ABP|EP|DWS|DWS-NC")
		tenants  = flag.Int("tenants", 0, "max co-running tenants m (0 = cores)")
		queue    = flag.Int("queue", 16, "per-tenant admission queue depth")
		gqueue   = flag.Int("global-queue", 0, "global WFQ backlog cap across tenants (0 = tenants*queue/2; negative disables shedding)")
		earlyRej = flag.Bool("early-reject", true, "reject jobs whose predicted queue wait exceeds their deadline")
		deadline = flag.Duration("deadline", 30*time.Second, "default per-job deadline")
		defSize  = flag.Float64("default-size", 0.25, "default job input scale")
		maxSize  = flag.Float64("max-size", 1.0, "maximum job input scale")
		drain    = flag.Duration("drain-timeout", 30*time.Second, "graceful drain budget on SIGTERM")
		period   = flag.Duration("period", 0, "coordinator period T (0 = rt default, 10ms)")
		leaseTTL = flag.Duration("lease-ttl", 0, "core-table lease expiry for wedged-tenant eviction (0 = 10×period)")
		arbiter  = flag.Duration("arbiter-period", 0, "QoS arbitration period, DWS only (0 = default 50ms; negative disables)")
		socket   = flag.Int("socket-size", 0, "cores per socket for locality-aware placement (0 = flat/off; negative = auto-detect from sysfs)")
	)
	flag.Parse()

	pol, err := rt.ParsePolicy(*policy)
	if err != nil {
		log.Fatalf("dwsd: %v", err)
	}
	runtime.GOMAXPROCS(*cores)
	if *tenants <= 0 {
		*tenants = *cores
	}

	s, err := server.New(server.Config{
		Cores:            *cores,
		Policy:           pol,
		Topology:         topologyFromFlag(*socket, *cores),
		MaxTenants:       *tenants,
		QueueDepth:       *queue,
		GlobalQueueDepth: *gqueue,
		NoEarlyReject:    !*earlyRej,
		DefaultDeadline:  *deadline,
		DefaultSize:      *defSize,
		MaxSize:          *maxSize,
		CoordPeriod:      *period,
		LeaseTTL:         *leaseTTL,
		ArbiterPeriod:    *arbiter,
	})
	if err != nil {
		log.Fatalf("dwsd: %v", err)
	}

	hs := &http.Server{Addr: *addr, Handler: s.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.ListenAndServe() }()
	topoLabel := "flat"
	if tp := topologyFromFlag(*socket, *cores); tp != nil && !tp.Flat() {
		topoLabel = tp.String()
	}
	log.Printf("dwsd: serving on %s (policy=%v cores=%d tenants≤%d queue=%d topo=%s)",
		*addr, pol, *cores, *tenants, *queue, topoLabel)

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errCh:
		log.Fatalf("dwsd: %v", err)
	case sig := <-sigCh:
		log.Printf("dwsd: %v — draining (budget %v)", sig, *drain)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	// Stop taking new connections, let in-flight requests finish, and
	// drain the admission queues.
	if err := s.Shutdown(ctx); err != nil {
		log.Printf("dwsd: drain incomplete: %v", err)
	}
	if err := hs.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("dwsd: http shutdown: %v", err)
	}
	fmt.Println("dwsd: drained, bye")
}
