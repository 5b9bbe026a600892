package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"dws/internal/router"
	"dws/internal/rt"
	"dws/internal/server"
)

// listener is one http.Server on a loopback port, as cmd/dwsd and
// cmd/dwsrouter start theirs: a bare &http.Server{Handler: h}.
type listener struct {
	hs   *http.Server
	url  string
	done chan struct{} // closed when Serve has returned
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen on loopback: %w", err)
	}
	l := &listener{hs: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(l.done)
		_ = l.hs.Serve(ln) // always returns ErrServerClosed after stop
	}()
	return l, nil
}

func (l *listener) stop() {
	_ = l.hs.Close() // the clients are idle by now; nothing to drain
	<-l.done
}

// shardProc is one in-process dwsd.
type shardProc struct {
	name string
	srv  *server.Server
	ln   *listener
}

// stack is the program under test: one dwsd, or a router over two.
type stack struct {
	shards []*shardProc
	router *router.Router
	front  *listener // the router's listener; nil when clients talk to the shard
}

// url is where clients submit.
func (s *stack) url() string {
	if s.front != nil {
		return s.front.url
	}
	return s.shards[0].ln.url
}

// buildStack starts the servers of one live workload. Policy DWS, cores and
// tenant slots as the workload states; everything else is the shipped
// default of server.Config and router.Config. rec, when non-nil, wraps
// every handler in a span recorder.
func buildStack(w *liveSpec, rec *recorder) (*stack, error) {
	st := &stack{}
	wrap := func(layer string, h http.Handler) http.Handler {
		if rec == nil {
			return h
		}
		return rec.wrap(layer, h)
	}
	var specs []router.ShardSpec
	for i := 0; i < w.shards; i++ {
		srv, err := server.New(server.Config{Cores: w.shardCores, Policy: rt.DWS, MaxTenants: w.shardTenants})
		if err != nil {
			st.close()
			return nil, err
		}
		name := fmt.Sprintf("s%d", i)
		ln, err := listen(wrap("shard:"+name, srv.Handler()))
		if err != nil {
			_ = srv.Shutdown(context.Background()) // nothing was admitted; the listen error is the one to report
			st.close()
			return nil, err
		}
		st.shards = append(st.shards, &shardProc{name: name, srv: srv, ln: ln})
		specs = append(specs, router.ShardSpec{Name: name, URL: ln.url})
	}
	if w.shards > 1 {
		r, err := router.New(router.Config{Shards: specs, Spill: router.SpillNext})
		if err != nil {
			st.close()
			return nil, err
		}
		st.router = r
		if st.front, err = listen(wrap("router", r.Handler())); err != nil {
			st.close()
			return nil, err
		}
	}
	return st, nil
}

// close stops everything buildStack started and waits for it. The clients
// are idle by then, so a drain that does not finish is worth a line on
// stderr and nothing more.
func (s *stack) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	warn := func(what string, err error) {
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: stopping %s: %v\n", what, err)
		}
	}
	if s.front != nil {
		s.front.stop()
	}
	if s.router != nil {
		warn("the router", s.router.Shutdown(ctx))
	}
	for _, sh := range s.shards {
		sh.ln.stop()
		warn("shard "+sh.name, sh.srv.Shutdown(ctx))
	}
}
