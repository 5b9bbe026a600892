package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"dws/internal/admit"
	"dws/internal/server"
)

// LiveOptions configures a replay against a running dwsd server.
type LiveOptions struct {
	// BaseURL is the server root, e.g. "http://localhost:8080": one dwsd,
	// or a dwsrouter front tier, which looks like a single big dwsd and
	// places each tenant on its shard.
	BaseURL string
	// TimeScale maps trace µs to wall µs: 1.0 replays in real time, 0.1
	// replays 10× faster. ≤0 defaults to 1.0.
	TimeScale float64
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

// RunLive replays the trace against a live dwsd, firing each job event at
// its scaled wall time and classifying responses into the same outcome
// vocabulary as the simulated replay: 200 → ok (late if past deadline),
// 429 → rejected/shed/early_reject per the server's reject-reason
// header, 504 → expired, anything else → error. Leave events
// delete the tenant; join events take effect through the tenant's first
// job (dwsd creates tenants on first use).
func RunLive(tr *Trace, opts LiveOptions) (*Result, error) {
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	if opts.TimeScale <= 0 {
		opts.TimeScale = 1
	}
	client := &http.Client{Timeout: 5 * time.Minute} // one job, queue wait included
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	base := opts.BaseURL

	info, err := fetchInfo(client, base)
	if err != nil {
		return nil, fmt.Errorf("scenario: %s unreachable: %w", base, err)
	}
	logf("replaying %q against %s: policy=%s cores=%d timescale=%g",
		tr.Name, base, info.Policy, info.Cores, opts.TimeScale)

	// Kernel refs resolve to server catalog names up front so a typo fails
	// before any job fires.
	kernelName := map[string]string{}
	for _, e := range tr.Events {
		if e.Op == OpJob && kernelName[e.Kernel] == "" {
			b, err := resolveKernel(e.Kernel)
			if err != nil {
				return nil, err
			}
			kernelName[e.Kernel] = b.Name
		}
	}

	var (
		mu       sync.Mutex
		outcomes []Outcome
		lastDone time.Time
	)
	record := func(o Outcome) {
		mu.Lock()
		outcomes = append(outcomes, o)
		lastDone = time.Now()
		mu.Unlock()
	}

	var wg sync.WaitGroup
	tenantWG := map[string]*sync.WaitGroup{}
	start := time.Now()
	pendingWeight := map[string]float64{} // declared on join, attached to the next job
	for i := range tr.Events {
		e := tr.Events[i]
		due := start.Add(time.Duration(float64(e.AtUS)*opts.TimeScale) * time.Microsecond)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		switch e.Op {
		case OpJoin:
			if e.Weight > 0 {
				pendingWeight[e.Tenant] = e.Weight
			}
		case OpLeave:
			if tw := tenantWG[e.Tenant]; tw != nil {
				tw.Wait() // drain the tenant's in-flight jobs before deleting it
			}
			if err := deleteTenant(client, base, e.Tenant); err != nil {
				logf("leave %s: %v", e.Tenant, err)
			}
		case OpJob:
			req := server.JobRequest{
				Tenant:     e.Tenant,
				Kernel:     kernelName[e.Kernel],
				Size:       e.Scale,
				DeadlineMS: e.DeadlineUS / 1000,
				Weight:     e.Weight,
			}
			if req.Weight == 0 && pendingWeight[e.Tenant] > 0 {
				req.Weight = pendingWeight[e.Tenant]
				delete(pendingWeight, e.Tenant)
			}
			tw := tenantWG[e.Tenant]
			if tw == nil {
				tw = &sync.WaitGroup{}
				tenantWG[e.Tenant] = tw
			}
			wg.Add(1)
			tw.Add(1)
			go func() {
				defer wg.Done()
				defer tw.Done()
				record(fireJob(client, base, req))
			}()
		}
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	makespanMS := float64(lastDone.Sub(start)) / float64(time.Millisecond)
	return Summarize(tr.Name, info.Policy, "live", outcomes, makespanMS), nil
}

// fireJob posts one job and classifies the response.
func fireJob(client *http.Client, baseURL string, req server.JobRequest) Outcome {
	o := Outcome{Tenant: req.Tenant}
	body, err := json.Marshal(req)
	if err != nil {
		o.Status = "error"
		return o
	}
	resp, err := client.Post(baseURL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		o.Status = "error"
		return o
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		var res server.JobResult
		if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
			o.Status = "error"
			return o
		}
		o.LatencyMS = res.TotalMS
		o.LocalSteals = res.Stats.LocalSteals
		o.RemoteSteals = res.Stats.RemoteSteals
		if req.DeadlineMS > 0 && res.TotalMS > float64(req.DeadlineMS) {
			o.Status = "late"
		} else {
			o.Status = "ok"
		}
	case http.StatusTooManyRequests:
		// The server names the refusal: a displaced backlog entry is
		// "shed", a predicted deadline miss is "early_reject", and plain
		// queue-full/overload answers stay "rejected" — the same
		// vocabulary the sim emits, so results line up column for column.
		switch reason := resp.Header.Get(server.RejectReasonHeader); reason {
		case admit.Shed.String(), admit.EarlyReject.String():
			o.Status = reason
		default:
			o.Status = "rejected"
		}
	case http.StatusGatewayTimeout:
		o.Status = "expired"
	default:
		o.Status = "error"
	}
	io.Copy(io.Discard, resp.Body)
	return o
}

func fetchInfo(client *http.Client, baseURL string) (*server.Info, error) {
	resp, err := client.Get(baseURL + "/v1/info")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/info: %s", resp.Status)
	}
	var info server.Info
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		return nil, err
	}
	return &info, nil
}

func deleteTenant(client *http.Client, baseURL, name string) error {
	req, err := http.NewRequest(http.MethodDelete, baseURL+"/v1/tenants/"+name, nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNoContent &&
		resp.StatusCode != http.StatusNotFound {
		return fmt.Errorf("DELETE tenant %s: %s", name, resp.Status)
	}
	return nil
}
