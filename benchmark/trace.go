package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one interval at a layer boundary, in ns since the recorder's
// epoch. Status is the HTTP status the layer answered with.
type span struct {
	Start, End int64
	Status     int
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps the spans of the traced pass in memory. Spans are filed by
// (layer, flow) in arrival order, a flow being one client's requests (see
// flowOf): every client has exactly one request in flight and tracing is
// switched on only while none has, so the i-th span of a flow at every layer
// it crosses belongs to the flow's i-th traced request. That index is the
// request identifier — the layers under test carry no request ID of their
// own yet, and the router forwards no client header a wrapper could read
// one from.
type recorder struct {
	on    atomic.Bool
	epoch time.Time

	mu    sync.Mutex
	spans map[string]map[string][]span // layer → flow → spans
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), spans: map[string]map[string][]span{}}
}

func (r *recorder) since(t time.Time) int64 { return int64(t.Sub(r.epoch)) }

func (r *recorder) add(layer, flow string, s span) {
	r.mu.Lock()
	byFlow := r.spans[layer]
	if byFlow == nil {
		byFlow = map[string][]span{}
		r.spans[layer] = byFlow
	}
	byFlow[flow] = append(byFlow[flow], s)
	r.mu.Unlock()
}

func (r *recorder) of(layer, flow string) []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans[layer][flow]
}

// statusWriter remembers the status code a handler wrote.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// wrap records one span per POST /v1/jobs around h while tracing is on. The
// flow is read out of the request body, which the wrapper has to buffer
// and hand back; that copy is part of what trace.overhead_share reports.
func (r *recorder) wrap(layer string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if !r.on.Load() || req.Method != http.MethodPost || req.URL.Path != "/v1/jobs" {
			h.ServeHTTP(w, req)
			return
		}
		start := time.Now()
		body, err := io.ReadAll(req.Body)
		if err != nil {
			http.Error(w, "benchmark: reading body: "+err.Error(), http.StatusBadRequest)
			return
		}
		req.Body = io.NopCloser(bytes.NewReader(body))
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h.ServeHTTP(sw, req)
		r.add(layer, flowOf(body), span{Start: r.since(start), End: r.since(time.Now()), Status: sw.code})
	})
}

// flowOf names the client a JobRequest body came from: tenant/kernel. The
// tenant alone would do everywhere but on refusal-storm, whose two clients
// share one tenant and differ in kernel.
func flowOf(body []byte) string {
	return jsonString(body, "tenant") + "/" + jsonString(body, "kernel")
}

// jsonString reads a top-level string field out of a body as the
// benchmark's own client marshals it ("key":"value", values without
// escapes).
func jsonString(body []byte, key string) string {
	pat := []byte(`"` + key + `":"`)
	i := bytes.Index(body, pat)
	if i < 0 {
		return ""
	}
	rest := body[i+len(pat):]
	j := bytes.IndexByte(rest, '"')
	if j < 0 {
		return ""
	}
	return string(rest[:j])
}

// selfTime is the parent's duration minus the part of it that its child
// spans cover. Children are clipped to the parent and overlapping children
// are counted once.
func selfTime(parent span, children ...span) int64 {
	cs := make([]span, 0, len(children))
	for _, c := range children {
		if c.Start < parent.Start {
			c.Start = parent.Start
		}
		if c.End > parent.End {
			c.End = parent.End
		}
		if c.End > c.Start {
			cs = append(cs, c)
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
	covered, reach := int64(0), parent.Start
	for _, c := range cs {
		if c.Start > reach {
			reach = c.Start
		}
		if c.End > reach {
			covered += c.End - reach
			reach = c.End
		}
	}
	return parent.dur() - covered
}

// traceLine is one line of trace-<workload>.jsonl.
type traceLine struct {
	Req     string  `json:"req"` // flow#index: shared by the spans of one request
	Name    string  `json:"name"`
	Parent  string  `json:"parent,omitempty"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
	Status  int     `json:"status,omitempty"`
}

// traceFileRequests caps how many requests per flow are written out: the
// metrics use every span, the file is for reading a timeline by hand.
const traceFileRequests = 20000

// tracedRequest is one request's spans after the join.
type tracedRequest struct {
	flow   string
	who    int // index of the client that sent it
	index  int
	client span
	router *span  // nil on direct workloads
	shards []span // in visiting order: refusing shards first, serving shard last
	names  []string
	jobNS  int64 // JobResult.total_ms of the serving shard's answer; 0 for refusals
}

func writeTrace(path string, reqs []tracedRequest) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	line := func(tr tracedRequest, name, parent string, s span) {
		_ = enc.Encode(traceLine{ // errors surface at Flush
			Req: fmt.Sprintf("%s#%d", tr.flow, tr.index), Name: name, Parent: parent,
			StartUS: float64(s.Start) / 1e3, EndUS: float64(s.End) / 1e3, Status: s.Status,
		})
	}
	for _, tr := range reqs {
		if tr.index >= traceFileRequests {
			continue
		}
		line(tr, "client", "", tr.client)
		parent := "client"
		if tr.router != nil {
			line(tr, "router", "client", *tr.router)
			parent = "router"
		}
		for i, s := range tr.shards {
			line(tr, tr.names[i], parent, s)
		}
		if tr.jobNS > 0 {
			// The program reports only how long the job took, not when: the
			// span is drawn ending where the serving shard's span ends.
			last := tr.shards[len(tr.shards)-1]
			line(tr, "job", tr.names[len(tr.names)-1], span{Start: last.End - tr.jobNS, End: last.End})
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
