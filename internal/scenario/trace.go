// Package scenario is the trace-driven workload engine: a versioned
// on-disk trace format (JSONL), seeded generators that compile a
// declarative Spec into a concrete trace, a committed catalog of named
// scenarios, and runners that replay one trace through both substrates —
// the deterministic simulator (internal/sim, virtual clock) and a live
// dwsd server over HTTP — emitting the same per-tenant Result either way.
//
// A trace is the unit of comparison: the benchmark suite replays the same
// trace under every policy, so policy rankings are never confounded by
// workload sampling noise. Compilation is seeded and replay on the
// simulator is bit-for-bit reproducible, so committed benchmark numbers
// regenerate exactly on any host.
package scenario

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// Format and version of the on-disk trace encoding.
const (
	FormatName = "dws-scenario-trace"
	Version    = 1
)

// Op is an event kind.
type Op string

const (
	// OpJob submits one kernel run for the tenant.
	OpJob Op = "job"
	// OpJoin brings the tenant online (tenant churn). Tenants with no join
	// event are present from time 0.
	OpJoin Op = "join"
	// OpLeave retires the tenant; a later OpJoin may bring it back.
	OpLeave Op = "leave"
)

// Event is one line of a trace.
type Event struct {
	// AtUS is the event time in µs from trace start (virtual µs on the
	// simulator; scaled wall time against a live server).
	AtUS int64 `json:"at_us"`
	// Tenant names the submitting program.
	Tenant string `json:"tenant"`
	// Op is the event kind.
	Op Op `json:"op"`
	// Kernel is a workload ID ("p-1"…"p-8", "s-1"…"s-3") or name ("FFT");
	// job events only.
	Kernel string `json:"kernel,omitempty"`
	// Scale is the kernel input scale; job events only.
	Scale float64 `json:"scale,omitempty"`
	// DeadlineUS bounds queue wait + run time (0 = none); job events only.
	DeadlineUS int64 `json:"deadline_us,omitempty"`
	// Weight declares the tenant's QoS arbitration weight as of this event
	// (0 keeps the previous declaration; tenants start at 1).
	Weight float64 `json:"weight,omitempty"`
}

// Trace is a complete scenario trace.
type Trace struct {
	// Version is the format version (see Version).
	Version int
	// Name labels the trace (catalog scenarios use their catalog name).
	Name string
	// Seed records the generator seed the trace was compiled from
	// (0 for hand-written traces).
	Seed int64
	// Events is the time-ordered event list.
	Events []Event
}

// Tenants returns the distinct tenant names in first-appearance order.
func (t *Trace) Tenants() []string {
	var names []string
	seen := map[string]bool{}
	for _, e := range t.Events {
		if !seen[e.Tenant] {
			seen[e.Tenant] = true
			names = append(names, e.Tenant)
		}
	}
	return names
}

// Validate checks structural well-formedness: supported version, a legal
// name, time-ordered events, job fields present exactly on job events, and
// per-tenant join/leave consistency (no jobs while departed).
func (t *Trace) Validate() error {
	if t.Version != Version {
		return fmt.Errorf("scenario: unsupported trace version %d (want %d)", t.Version, Version)
	}
	if err := checkName("trace name", t.Name); err != nil {
		return err
	}
	if len(t.Events) == 0 {
		return fmt.Errorf("scenario: trace %q has no events", t.Name)
	}
	last := int64(0)
	present := map[string]bool{} // tenant -> departed?
	for i, e := range t.Events {
		where := fmt.Sprintf("scenario: trace %q event %d", t.Name, i)
		if e.AtUS < last {
			return fmt.Errorf("%s: at %dµs out of order (prev %dµs)", where, e.AtUS, last)
		}
		last = e.AtUS
		if err := checkName("tenant", e.Tenant); err != nil {
			return fmt.Errorf("%s: %w", where, err)
		}
		if e.Weight < 0 {
			return fmt.Errorf("%s: negative weight", where)
		}
		switch e.Op {
		case OpJob:
			if e.Kernel == "" {
				return fmt.Errorf("%s: job without kernel", where)
			}
			if err := checkName("kernel", e.Kernel); err != nil {
				return fmt.Errorf("%s: %w", where, err)
			}
			if e.Scale <= 0 {
				return fmt.Errorf("%s: job scale %v must be positive", where, e.Scale)
			}
			if e.DeadlineUS < 0 {
				return fmt.Errorf("%s: negative deadline", where)
			}
			if gone, known := present[e.Tenant]; known && gone {
				return fmt.Errorf("%s: job for departed tenant %q", where, e.Tenant)
			}
			if _, known := present[e.Tenant]; !known {
				present[e.Tenant] = false
			}
		case OpJoin:
			if gone, known := present[e.Tenant]; known && !gone {
				return fmt.Errorf("%s: join for already-present tenant %q", where, e.Tenant)
			}
			present[e.Tenant] = false
		case OpLeave:
			if gone, known := present[e.Tenant]; !known || gone {
				return fmt.Errorf("%s: leave for absent tenant %q", where, e.Tenant)
			}
			present[e.Tenant] = true
		default:
			return fmt.Errorf("%s: unknown op %q", where, e.Op)
		}
		if e.Op != OpJob && (e.Kernel != "" || e.Scale != 0 || e.DeadlineUS != 0) {
			return fmt.Errorf("%s: %s event carries job fields", where, e.Op)
		}
	}
	return nil
}

// checkName rejects empty names and names carrying a character reserved
// in log and report output.
func checkName(what, s string) error {
	if s == "" {
		return fmt.Errorf("empty %s", what)
	}
	if strings.ContainsAny(s, ", \t\r\n\"#=") {
		return fmt.Errorf("%s %q contains a reserved character", what, s)
	}
	return nil
}

// jsonlHeader is the first line of the JSONL encoding.
type jsonlHeader struct {
	Format  string `json:"format"`
	Version int    `json:"version"`
	Name    string `json:"name"`
	Seed    int64  `json:"seed"`
}

// WriteJSONL encodes the trace as one header object line followed by one
// object per event.
func WriteJSONL(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(jsonlHeader{Format: FormatName, Version: t.Version, Name: t.Name, Seed: t.Seed}); err != nil {
		return err
	}
	for i := range t.Events {
		if err := enc.Encode(&t.Events[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// LoadJSONL decodes a JSONL trace. The result is validated.
func LoadJSONL(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	if !sc.Scan() {
		return nil, fmt.Errorf("scenario: empty trace stream")
	}
	var h jsonlHeader
	if err := json.Unmarshal(sc.Bytes(), &h); err != nil {
		return nil, fmt.Errorf("scenario: bad trace header: %w", err)
	}
	if h.Format != FormatName {
		return nil, fmt.Errorf("scenario: not a %s stream (format %q)", FormatName, h.Format)
	}
	t := &Trace{Version: h.Version, Name: h.Name, Seed: h.Seed}
	for line := 2; sc.Scan(); line++ {
		if len(strings.TrimSpace(string(sc.Bytes()))) == 0 {
			continue
		}
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return nil, fmt.Errorf("scenario: line %d: %w", line, err)
		}
		t.Events = append(t.Events, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// WriteFile writes the trace to path as JSONL; path must end in .jsonl.
func WriteFile(path string, t *Trace) error {
	if err := checkExt(path); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := WriteJSONL(f, t); err != nil {
		return err
	}
	return f.Close()
}

// LoadFile loads a JSONL trace from path; path must end in .jsonl.
func LoadFile(path string) (*Trace, error) {
	if err := checkExt(path); err != nil {
		return nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadJSONL(f)
}

// checkExt rejects a trace path without the one on-disk encoding's
// extension.
func checkExt(path string) error {
	if ext := filepath.Ext(path); ext != ".jsonl" {
		return fmt.Errorf("scenario: unknown trace extension %q (want .jsonl)", ext)
	}
	return nil
}
