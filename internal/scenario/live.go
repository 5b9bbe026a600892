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

// LiveOptions configures a replay against a running dwsd server — or, via
// Targets, a set of them (federated shards addressed directly, or one
// dwsrouter front tier which looks like a single big dwsd).
type LiveOptions struct {
	// BaseURL is the server root, e.g. "http://localhost:8080". Ignored
	// when Targets is set.
	BaseURL string
	// Targets, when non-empty, lists shard roots; each tenant's jobs all go
	// to one target chosen by PickTarget (tenant stickiness — splitting one
	// tenant across shards would split its WFQ history). A single-element
	// Targets is exactly BaseURL behavior.
	Targets []string
	// PickTarget maps a tenant to an index into Targets; nil defaults to an
	// FNV-1a hash of the tenant name, the same keyed placement the router's
	// ring uses (minus bounded loads).
	PickTarget func(tenant string, targets []string) int
	// Client is the HTTP client (nil = a client with a 5-minute per-job
	// timeout).
	Client *http.Client
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
	client := opts.Client
	if client == nil {
		client = &http.Client{Timeout: 5 * time.Minute}
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	targets := opts.Targets
	if len(targets) == 0 {
		targets = []string{opts.BaseURL}
	}
	pick := opts.PickTarget
	if pick == nil {
		pick = defaultPickTarget
	}
	// target resolves a tenant to its sticky shard root; with one target
	// every tenant lands on it and the replay is the single-server replay.
	target := func(tenant string) string {
		if len(targets) == 1 {
			return targets[0]
		}
		i := pick(tenant, targets)
		if i < 0 || i >= len(targets) {
			i = 0
		}
		return targets[i]
	}

	info, err := fetchInfo(client, targets[0])
	if err != nil {
		return nil, fmt.Errorf("scenario: %s unreachable: %w", targets[0], err)
	}
	logf("replaying %q against %d target(s) [%s ...]: policy=%s cores=%d timescale=%g",
		tr.Name, len(targets), targets[0], info.Policy, info.Cores, opts.TimeScale)

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
			if err := deleteTenant(client, target(e.Tenant), e.Tenant); err != nil {
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
				record(fireJob(client, target(req.Tenant), req))
			}()
		}
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	makespanMS := float64(lastDone.Sub(start)) / float64(time.Millisecond)
	return Summarize(tr.Name, info.Policy, "live", outcomes, makespanMS), nil
}

// defaultPickTarget is tenant-keyed FNV-1a placement across targets.
func defaultPickTarget(tenant string, targets []string) int {
	h := uint64(14695981039346656037)
	for i := 0; i < len(tenant); i++ {
		h ^= uint64(tenant[i])
		h *= 1099511628211
	}
	return int(h % uint64(len(targets)))
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
