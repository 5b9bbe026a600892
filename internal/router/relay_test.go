package router

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestShardConnectionsReused: eight clients submitting back to back through
// one shard need eight connections, not one per answer the idle pool
// cannot keep. The first eight jobs are held at the shard until all have
// arrived, so no dial is still in flight when a connection comes back.
func TestShardConnectionsReused(t *testing.T) {
	f := newFakeShard(t)
	hold := make(chan struct{})
	f.mu.Lock()
	f.hold = hold
	f.mu.Unlock()
	rt := newTestRouter(t, SpillNext, 2, f)
	const clients, jobs = 8, 50
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for j := 0; j < jobs; j++ {
				resp := submit(t, rt, fmt.Sprintf("tenant-%d", c))
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("client %d job %d: status %d", c, j, resp.StatusCode)
					return
				}
			}
		}(c)
	}
	for f.hitCount() < clients {
		time.Sleep(time.Millisecond)
	}
	close(hold)
	wg.Wait()
	if got := f.hitCount(); got != clients*jobs {
		t.Fatalf("shard served %d jobs, want %d", got, clients*jobs)
	}
	if got := f.connCount(); got > clients {
		t.Errorf("%d clients × %d jobs opened %d shard connections, want at most %d", clients, jobs, got, clients)
	}
}

// TestClientDisconnectIsNotShardError: a client that hangs up mid-hop is
// not the shard's failure — no error counted, no spill, no breaker step.
func TestClientDisconnectIsNotShardError(t *testing.T) {
	fakes := []*fakeShard{newFakeShard(t), newFakeShard(t)}
	rt := newTestRouter(t, SpillNext, 2, fakes...)
	home := homeIndex(rt, "tenant-k")
	fakes[home].mu.Lock()
	fakes[home].delay = 10 * time.Second
	fakes[home].mu.Unlock()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req := httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(`{"tenant":"tenant-k","kernel":"FFT"}`)).WithContext(ctx)
	done := make(chan struct{})
	go func() {
		defer close(done)
		rt.Handler().ServeHTTP(httptest.NewRecorder(), req)
	}()
	for fakes[home].hitCount() == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("the hop outlived its client's context")
	}

	out := scrape(rt)
	if strings.Contains(out, "dws_router_shard_errors_total") {
		t.Errorf("a client disconnect counted as a shard error:\n%s", out)
	}
	if strings.Contains(out, "dws_router_spills_total") || fakes[1-home].hitCount() != 0 {
		t.Error("a client disconnect spilled the job")
	}
	s := rt.byName[fmt.Sprintf("s%d", home)]
	s.mu.Lock()
	fails := s.consecFails
	s.mu.Unlock()
	if fails != 0 {
		t.Errorf("consecFails = %d after a client disconnect, want 0", fails)
	}
}

// TestUnavailableHomeSpills is the path every job of null-routed's second
// client takes: the home answers 503 with no Retry-After, as dwsd refuses a
// tenant it has no slot for, and the sibling serves the job.
func TestUnavailableHomeSpills(t *testing.T) {
	fakes := []*fakeShard{newFakeShard(t), newFakeShard(t)}
	rt := newTestRouter(t, SpillNext, 2, fakes...)
	home := homeIndex(rt, "tenant-l")
	fakes[home].script(http.StatusServiceUnavailable, "", "")

	resp := submit(t, rt, "tenant-l")
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 from the sibling", resp.StatusCode)
	}
	if got, want := resp.Header.Get("X-DWS-Shard"), fmt.Sprintf("s%d", 1-home); got != want {
		t.Errorf("X-DWS-Shard = %q, want %q", got, want)
	}
	if got := resp.Header.Get("X-DWS-Spills"); got != "1" {
		t.Errorf("X-DWS-Spills = %q, want 1", got)
	}
	want := fmt.Sprintf(`dws_router_spills_total{from="s%d",to="s%d",reason="unavailable"} 1`, home, 1-home)
	if out := scrape(rt); !strings.Contains(out, want) {
		t.Errorf("metrics lack %s:\n%s", want, out)
	}
}

// TestSubmitInputChecks: the router answers a body it cannot place 400
// without offering it to a shard, and relays the shard's own 400 for a
// body it can place but the shard rejects.
func TestSubmitInputChecks(t *testing.T) {
	big := `{"tenant":"tenant-m","pad":"` + strings.Repeat("x", maxBody) + `"}`
	chunked := func(s string) io.Reader { return io.MultiReader(strings.NewReader(s)) } // no declared length
	for _, tc := range []struct {
		name  string
		body  io.Reader
		shard bool // the shard sees the job and answers the 400
	}{
		{"invalid JSON", strings.NewReader(`{"tenant":`), false},
		{"missing tenant", strings.NewReader(`{"kernel":"FFT"}`), false},
		{"over 1 MiB, Content-Length", strings.NewReader(big), false},
		{"over 1 MiB, chunked", chunked(big), false},
		{"type error in another field", strings.NewReader(`{"tenant":"tenant-m","kernel":"FFT","size":"x"}`), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newFakeShard(t)
			rt := newTestRouter(t, SpillNext, 2, f)
			rec := httptest.NewRecorder()
			rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", tc.body))
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("status %d, want 400 (%s)", rec.Code, rec.Body)
			}
			hits := 0
			if tc.shard {
				hits = 1
			}
			if got := f.hitCount(); got != hits {
				t.Errorf("shard saw %d jobs, want %d", got, hits)
			}
			if relayed := rec.Header().Get("X-DWS-Shard") != ""; relayed != tc.shard {
				t.Errorf("400 relayed from a shard = %v, want %v (%s)", relayed, tc.shard, rec.Body)
			}
		})
	}
}

// cannedShard answers every request on a connection with one fixed answer
// over net.Pipe, allocating nothing once the connection is open, so
// AllocsPerRun counts the router's allocations alone.
type cannedShard struct{ answer []byte }

func newCannedShard(status int, payload string) cannedShard {
	return cannedShard{[]byte(fmt.Sprintf("HTTP/1.1 %d %s\r\nContent-Type: application/json\r\n"+
		"Date: Mon, 19 Oct 2026 10:00:00 GMT\r\nContent-Length: %d\r\n\r\n%s",
		status, http.StatusText(status), len(payload), payload))}
}

// dial is a shardClient.dial: the router's end of a new pipe, the other
// end served by c.
func (c cannedShard) dial(context.Context) (net.Conn, error) {
	router, shard := net.Pipe()
	go c.serve(shard)
	return router, nil
}

var (
	endOfHeader   = []byte("\r\n\r\n")
	contentLength = []byte("Content-Length: ")
)

// serve reads whole requests, a header block and its Content-Length of
// body, and writes the answer to each.
func (c cannedShard) serve(conn net.Conn) {
	defer conn.Close()
	buf := make([]byte, 4096)
	n := 0
	for {
		m, err := conn.Read(buf[n:])
		if err != nil {
			return
		}
		n += m
		end := bytes.Index(buf[:n], endOfHeader)
		if end < 0 {
			continue
		}
		want := end + len(endOfHeader)
		if i := bytes.Index(buf[:end], contentLength); i >= 0 {
			cl := 0
			for j := i + len(contentLength); j < end && '0' <= buf[j] && buf[j] <= '9'; j++ {
				cl = cl*10 + int(buf[j]-'0')
			}
			want += cl
		}
		if n < want {
			continue
		}
		if _, err := conn.Write(c.answer); err != nil {
			return
		}
		n = copy(buf, buf[want:n])
	}
}

// TestRelayAllocationBudget pins the allocations of one job through the
// router's handler — a served-at-home job and one that spills past a 503 —
// with the shards answering over in-memory pipes. Each count includes the
// httptest.ResponseRecorder's own allocations.
func TestRelayAllocationBudget(t *testing.T) {
	for _, tc := range []struct {
		name         string
		homeStatus   int
		budget       float64
		wantShardIdx int // 0: the home serves, 1: the sibling
	}{
		{"hop 0", http.StatusOK, 11, 0},
		{"503 then 200", http.StatusServiceUnavailable, 11, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt, err := New(Config{
				Shards:      []ShardSpec{{Name: "s0", URL: "http://s0.invalid"}, {Name: "s1", URL: "http://s1.invalid"}},
				ProbePeriod: time.Hour,
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { rt.Shutdown(context.Background()) })
			order := rt.placement("tenant-n")
			ok := newCannedShard(http.StatusOK, `{"status":"ok"}`+"\n")
			home := ok
			if tc.homeStatus != http.StatusOK {
				home = newCannedShard(tc.homeStatus, `{"error":"no free tenant slot"}`+"\n")
			}
			order[0].client.dial, order[1].client.dial = home.dial, ok.dial

			payload := []byte(`{"tenant":"tenant-n","kernel":"null"}`)
			body := bytes.NewReader(payload)
			req := httptest.NewRequest(http.MethodPost, "/v1/jobs", body)
			var rec *httptest.ResponseRecorder
			allocs := testing.AllocsPerRun(200, func() {
				body.Reset(payload)
				rec = httptest.NewRecorder()
				rt.Handler().ServeHTTP(rec, req)
			})
			if rec.Code != http.StatusOK || rec.Header().Get("X-DWS-Shard") != order[tc.wantShardIdx].name {
				t.Fatalf("status %d from %q, want 200 from %s", rec.Code, rec.Header().Get("X-DWS-Shard"), order[tc.wantShardIdx].name)
			}
			t.Logf("%s: %.0f allocations a job", tc.name, allocs)
			if allocs > tc.budget {
				t.Errorf("%s: %.0f allocations a job, budget %.0f", tc.name, allocs, tc.budget)
			}
		})
	}
}
