package router

import (
	"bufio"
	"bytes"
	"context"
	"crypto/x509"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"dws/internal/server"
)

// Answers as dwsd writes them, byte for byte: a served job, an early
// rejection, a refused tenant, and the chunked framing of a body over
// 2 KB (net/http's server chunks whatever its handler writes past its
// 2 KB buffer, as dwsd's /metrics does).
var dwsdAnswers = []string{
	"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nDate: Tue, 20 Oct 2026 02:16:16 GMT\r\nContent-Length: 257\r\n\r\n" +
		`{"id":4,"tenant":"alice","kernel":"FFT","policy":"DWS","cores":1,"size":0.01,"status":"ok","queue_ms":0.009237,"run_ms":0.358426,"total_ms":0.367663,"stats":{"steals":1,"failed_steals":1,"sleeps":0,"wakes":1,"evictions":0,"claims":1,"reclaims":0,"runs":1}}` + "\n",
	"HTTP/1.1 429 Too Many Requests\r\nContent-Type: application/json\r\nRetry-After: 1\r\nX-Dws-Reject-Reason: early_reject\r\nDate: Tue, 20 Oct 2026 02:16:18 GMT\r\nContent-Length: 79\r\n\r\n" +
		`{"error":"predicted queue wait already exceeds the 1ms deadline; retry in 1s"}` + "\n",
	"HTTP/1.1 503 Service Unavailable\r\nContent-Type: application/json\r\nDate: Tue, 20 Oct 2026 02:16:19 GMT\r\nContent-Length: 77\r\n\r\n" +
		`{"error":"no free tenant slot (max 1): rt: system already hosts 1 programs"}` + "\n",
	"HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\nDate: Tue, 20 Oct 2026 02:16:19 GMT\r\nTransfer-Encoding: chunked\r\n\r\n" +
		"800\r\n" + strings.Repeat("dws_queue_depth 0\n", 2048/18) + "dws_queue_de\r\n" +
		"13\r\npth{tenant=\"a\"} 0\n\n\r\n0\r\n\r\n",
}

// FuzzShardAnswer: whenever the answer parser accepts some bytes,
// net/http's ReadResponse accepts them too, with the same status, relayed
// headers, close flag and body.
func FuzzShardAnswer(f *testing.F) {
	for _, seed := range dwsdAnswers {
		f.Add([]byte(seed))
	}
	for _, seed := range []string{
		"HTTP/1.1 200 OK\r\nconnection: keep-alive, Close\r\ncontent-length: 2\r\n\r\nok",
		"HTTP/1.1 200\r\nContent-Type:  text/plain \t\r\n\r\nto the end",
		"HTTP/1.1 204 No Content\r\nContent-Length: 0\r\n\r\n",
		"HTTP/1.1 429 x\r\nRetry-After: 7\r\nRetry-After: 9\r\nX-DWS-Reject-Reason: shed\r\nContent-Length: 0\r\n\r\n",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n3;ext=1\r\nabc\r\n0\r\n\r\n",
		"HTTP/1.1 200 OK\r\nContent-Length: 3\r\nContent-Length: 3\r\n\r\nabc",
		"HTTP/1.1 200 OK\r\nX: a\r\n b\r\nContent-Length: 0\r\n\r\n",
		"HTTP/1.0 200 OK\r\nContent-Length: 0\r\n\r\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		var a answer
		if _, err := readAnswer(bufio.NewReader(bytes.NewReader(raw)), &a, nil); err != nil {
			return
		}
		resp, err := http.ReadResponse(bufio.NewReader(bytes.NewReader(raw)), nil)
		if err != nil {
			t.Fatalf("%q: parsed, but net/http says %v", raw, err)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("%q: parsed, but net/http's body says %v", raw, err)
		}
		if a.status != resp.StatusCode {
			t.Fatalf("%q: status %d, net/http %d", raw, a.status, resp.StatusCode)
		}
		for i, k := range relayedHeaders {
			if got, want := a.value(i), resp.Header.Get(k); got != want {
				t.Fatalf("%q: %s %q, net/http %q", raw, k, got, want)
			}
		}
		if a.close != resp.Close {
			t.Fatalf("%q: close %v, net/http %v", raw, a.close, resp.Close)
		}
		if !bytes.Equal(a.body, body) {
			t.Fatalf("%q: body %q, net/http %q", raw, a.body, body)
		}
	})
}

// TestReadAnswerBounds: a header line longer than the read buffer, or a
// header block over maxAnswerHeader, is refused.
func TestReadAnswerBounds(t *testing.T) {
	long := "HTTP/1.1 200 OK\r\nX-Pad: " + strings.Repeat("x", 4096) + "\r\nContent-Length: 0\r\n\r\n"
	var block strings.Builder
	block.WriteString("HTTP/1.1 200 OK\r\n")
	for block.Len() <= maxAnswerHeader {
		block.WriteString("X-Pad: " + strings.Repeat("x", 1000) + "\r\n")
	}
	block.WriteString("Content-Length: 0\r\n\r\n")
	for name, raw := range map[string]string{"long line": long, "long block": block.String()} {
		var a answer
		if _, err := readAnswer(bufio.NewReader(strings.NewReader(raw)), &a, nil); err != errMalformed {
			t.Errorf("%s: err %v, want %v", name, err, errMalformed)
		}
	}
}

// rawShard answers the router at the byte level: script answers the n-th
// request it reads (from 1) on conn, and returning false closes conn.
type rawShard struct {
	ln     net.Listener
	mu     sync.Mutex
	offers int
}

func newRawShard(t *testing.T, script func(n int, conn net.Conn) bool) *rawShard {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &rawShard{ln: ln}
	var wg sync.WaitGroup
	t.Cleanup(func() { ln.Close(); wg.Wait() })
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer conn.Close()
				br := bufio.NewReader(conn)
				for {
					req, err := http.ReadRequest(br)
					if err != nil {
						return
					}
					io.Copy(io.Discard, req.Body)
					s.mu.Lock()
					s.offers++
					n := s.offers
					s.mu.Unlock()
					if !script(n, conn) {
						return
					}
				}
			}()
		}
	}()
	return s
}

func (s *rawShard) url() string { return "http://" + s.ln.Addr().String() }

func (s *rawShard) offerCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.offers
}

// okAnswer is a served job's answer on a kept-alive connection.
func okAnswer(conn net.Conn) bool {
	body := `{"status":"ok"}` + "\n"
	_, err := fmt.Fprintf(conn, "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s", len(body), body)
	return err == nil
}

// tenantHomedOn returns a tenant whose walk starts at the named shard.
func tenantHomedOn(t *testing.T, rt *Router, name string) string {
	t.Helper()
	for i := 0; i < 100; i++ {
		tenant := fmt.Sprintf("tenant-%d", i)
		if rt.placement(tenant)[0].name == name {
			return tenant
		}
	}
	t.Fatalf("no tenant homed on %s", name)
	return ""
}

// expectServed submits one job and checks who served it after how many
// spills.
func expectServed(t *testing.T, rt *Router, tenant, shard, spills string) {
	t.Helper()
	resp := submit(t, rt, tenant)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-DWS-Shard") != shard || resp.Header.Get("X-DWS-Spills") != spills {
		t.Fatalf("status %d from %q after %q spills, want 200 from %s after %q",
			resp.StatusCode, resp.Header.Get("X-DWS-Shard"), resp.Header.Get("X-DWS-Spills"), shard, spills)
	}
}

// TestShardConnClosedWhileIdle: a shard that closes its idle connections
// between jobs serves the next job exactly once, with no shard error and
// no spill, though every pooled connection is stale.
func TestShardConnClosedWhileIdle(t *testing.T) {
	fakes := []*fakeShard{newFakeShard(t), newFakeShard(t)}
	rt := newTestRouter(t, SpillNext, 2, fakes...)
	tenant := tenantHomedOn(t, rt, "s0")
	// Two jobs held at the shard together leave two connections pooled.
	hold := make(chan struct{})
	fakes[0].mu.Lock()
	fakes[0].hold = hold
	fakes[0].mu.Unlock()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp := submit(t, rt, tenant)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("held job: status %d", resp.StatusCode)
			}
		}()
	}
	for fakes[0].hitCount() < 2 {
		time.Sleep(time.Millisecond)
	}
	close(hold)
	wg.Wait()
	c := rt.order[0].client
	c.mu.Lock()
	pooled := len(c.idle)
	c.mu.Unlock()
	if pooled != 2 {
		t.Fatalf("%d pooled connections, want 2", pooled)
	}
	fakes[0].srv.CloseClientConnections()
	expectServed(t, rt, tenant, "s0", "")
	if got := fakes[0].hitCount(); got != 3 {
		t.Errorf("the home served %d jobs, want 3", got)
	}
	if out := scrape(rt); strings.Contains(out, "dws_router_shard_errors_total") || strings.Contains(out, "dws_router_spills_total") {
		t.Errorf("a connection closed while idle counted as a failure:\n%s", out)
	}
}

// TestShardConnDiesAfterStatusLine: a shard that dies once its answer has
// begun is unreachable for that job, which spills, and is not offered the
// job again.
func TestShardConnDiesAfterStatusLine(t *testing.T) {
	home := newRawShard(t, func(n int, conn net.Conn) bool {
		if n == 1 {
			return okAnswer(conn)
		}
		io.WriteString(conn, "HTTP/1.1 200 OK\r\n")
		return false
	})
	rt := routerOver(t, SpillNext, 2, home.url(), newFakeShard(t).srv.URL)
	tenant := tenantHomedOn(t, rt, "s0")
	expectServed(t, rt, tenant, "s0", "")
	expectServed(t, rt, tenant, "s1", "1") // on the kept-alive connection
	if got := home.offerCount(); got != 2 {
		t.Errorf("the home saw %d offers for 2 jobs, want 2", got)
	}
	out := scrape(rt)
	for _, want := range []string{`dws_router_shard_errors_total{shard="s0"} 1`,
		`dws_router_spills_total{from="s0",to="s1",reason="unreachable"} 1`} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics lack %s:\n%s", want, out)
		}
	}
}

// TestShardConnStaleOfferedOnceMore: a kept-alive connection that closes
// before any answer byte has its job offered once more, on a new
// connection; a job whose second offer fails too is unreachable. So a job
// is offered to one shard at most twice.
func TestShardConnStaleOfferedOnceMore(t *testing.T) {
	home := newRawShard(t, func(n int, conn net.Conn) bool {
		// 1: served; 2: closed, 3: served on a new connection; 4, 5: closed.
		return (n == 1 || n == 3) && okAnswer(conn)
	})
	rt := routerOver(t, SpillNext, 2, home.url(), newFakeShard(t).srv.URL)
	tenant := tenantHomedOn(t, rt, "s0")
	expectServed(t, rt, tenant, "s0", "")
	expectServed(t, rt, tenant, "s0", "")
	if out := scrape(rt); strings.Contains(out, "dws_router_shard_errors_total") {
		t.Errorf("a stale connection counted as a shard error:\n%s", out)
	}
	expectServed(t, rt, tenant, "s1", "1")
	if got := home.offerCount(); got != 5 {
		t.Errorf("the home saw %d offers, want 5 (1, then 2 for each later job)", got)
	}
}

// TestShardConnCloseNotPooled: an answer carrying Connection: close
// leaves its connection out of the pool, so every job dials.
func TestShardConnCloseNotPooled(t *testing.T) {
	var mu sync.Mutex
	conns := 0
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Connection", "close")
		json.NewEncoder(w).Encode(server.JobResult{Status: server.StatusOK})
	}))
	srv.Config.ConnState = func(_ net.Conn, state http.ConnState) {
		if state == http.StateNew {
			mu.Lock()
			conns++
			mu.Unlock()
		}
	}
	srv.Start()
	t.Cleanup(srv.Close)
	rt := routerOver(t, SpillNext, 2, srv.URL)
	for i := 0; i < 3; i++ {
		expectServed(t, rt, "tenant-c", "s0", "")
		if idle := len(rt.order[0].client.idle); idle != 0 {
			t.Fatalf("job %d: %d pooled connections, want 0", i, idle)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if conns != 3 {
		t.Errorf("3 jobs opened %d connections, want 3", conns)
	}
}

// TestShardConnShutdown: once Shutdown returns, the router holds no
// connection open to any shard: not from jobs, probes or fan-outs.
func TestShardConnShutdown(t *testing.T) {
	fakes := []*fakeShard{newFakeShard(t), newFakeShard(t)}
	rt := newTestRouter(t, SpillNext, 2, fakes...)
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for j := 0; j < 5; j++ {
				submit(t, rt, fmt.Sprintf("tenant-%d", c)).Body.Close()
			}
		}(c)
	}
	wg.Wait()
	rt.ProbeAll()
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/info", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/v1/info: %d", rec.Code)
	}
	if err := rt.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		open := 0
		for _, f := range fakes {
			f.mu.Lock()
			open += f.open
			f.mu.Unlock()
		}
		if open == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d shard connections still open after Shutdown", open)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestShardConnHTTPS: an https shard is reached over TLS.
func TestShardConnHTTPS(t *testing.T) {
	srv := httptest.NewTLSServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(server.JobResult{Status: server.StatusOK})
	}))
	t.Cleanup(srv.Close)
	rt := routerOver(t, SpillNext, 2, srv.URL)
	roots := x509.NewCertPool()
	roots.AddCert(srv.Certificate())
	rt.order[0].client.tls.RootCAs = roots
	expectServed(t, rt, "tenant-t", "s0", "")
	expectServed(t, rt, "tenant-t", "s0", "")
}
