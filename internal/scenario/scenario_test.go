package scenario

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dws/internal/sim"
)

// compileCatalog compiles every catalog scenario, failing the test on any
// error.
func compileCatalog(t *testing.T) []*Trace {
	t.Helper()
	var out []*Trace
	for _, s := range Catalog() {
		tr, err := s.Compile()
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		out = append(out, tr)
	}
	return out
}

// TestCatalogCompiles: every committed scenario compiles, validates, and
// has a sane shape.
func TestCatalogCompiles(t *testing.T) {
	traces := compileCatalog(t)
	if len(traces) < 6 {
		t.Fatalf("catalog has %d scenarios, want >= 6", len(traces))
	}
	seen := map[string]bool{}
	for _, tr := range traces {
		if seen[tr.Name] {
			t.Fatalf("duplicate scenario name %q", tr.Name)
		}
		seen[tr.Name] = true
		jobs := 0
		for _, e := range tr.Events {
			if e.Op == OpJob {
				jobs++
			}
		}
		if jobs < 20 {
			t.Errorf("%s: only %d job events", tr.Name, jobs)
		}
		if n := len(tr.Tenants()); n < 2 {
			t.Errorf("%s: only %d tenants", tr.Name, n)
		}
	}
	// The lookup helpers agree with the catalog.
	names := CatalogNames()
	if len(names) != len(traces) {
		t.Fatalf("CatalogNames() has %d entries for %d scenarios", len(names), len(traces))
	}
	if _, err := SpecByName("bursty-pareto"); err != nil {
		t.Fatal(err)
	}
	if _, err := SpecByName("nope"); err == nil {
		t.Fatal("SpecByName(nope) succeeded")
	}
	if _, err := CompileByName("steady-uniform"); err != nil {
		t.Fatal(err)
	}
}

// TestLoad: the -scenario lookup shared by dwssim and dwsload takes a
// catalog name, a .jsonl path or a .csv path, and a miss names the catalog.
func TestLoad(t *testing.T) {
	want, err := CompileByName("gold-qos")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	args := []string{"gold-qos"}
	for _, ext := range []string{".jsonl", ".csv"} {
		path := filepath.Join(dir, "trace"+ext)
		if err := WriteFile(path, want); err != nil {
			t.Fatal(err)
		}
		args = append(args, path)
	}
	for _, arg := range args {
		got, err := Load(arg, 0)
		if err != nil {
			t.Fatalf("Load(%q): %v", arg, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("Load(%q) differs from the compiled catalog scenario", arg)
		}
	}
	reseeded, err := Load("gold-qos", 9)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(want.Events, reseeded.Events) {
		t.Error("a non-zero seed left the catalog scenario's arrivals unchanged")
	}
	if _, err := Load("nope", 0); err == nil || !strings.Contains(err.Error(), "gold-qos") {
		t.Errorf("Load(nope) = %v, want an error listing the catalog", err)
	}
	if _, err := Load(filepath.Join(dir, "missing.jsonl"), 0); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("Load(missing.jsonl) = %v, want a file-not-found error", err)
	}
}

// TestCompileDeterministic: compiling the same spec twice yields deeply
// equal traces, and the serialised bytes are identical.
func TestCompileDeterministic(t *testing.T) {
	for _, s := range Catalog() {
		t1, err := s.Compile()
		if err != nil {
			t.Fatal(err)
		}
		t2, _ := s.Compile()
		if !reflect.DeepEqual(t1, t2) {
			t.Fatalf("%s: nondeterministic compile", s.Name)
		}
		var b1, b2 bytes.Buffer
		if err := WriteJSONL(&b1, t1); err != nil {
			t.Fatal(err)
		}
		if err := WriteJSONL(&b2, t2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
			t.Fatalf("%s: nondeterministic serialisation", s.Name)
		}
	}
}

// TestTraceRoundTrip: generate → write → load → write is bit-identical in
// both encodings, and the loaded trace deeply equals the original.
func TestTraceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	for _, tr := range compileCatalog(t) {
		for _, ext := range []string{".jsonl", ".csv"} {
			path := filepath.Join(dir, tr.Name+ext)
			if err := WriteFile(path, tr); err != nil {
				t.Fatalf("%s%s write: %v", tr.Name, ext, err)
			}
			got, err := LoadFile(path)
			if err != nil {
				t.Fatalf("%s%s load: %v", tr.Name, ext, err)
			}
			if !reflect.DeepEqual(tr, got) {
				t.Fatalf("%s%s: round-trip changed the trace", tr.Name, ext)
			}
			var a, b bytes.Buffer
			write := map[string]func(*bytes.Buffer, *Trace){
				".jsonl": func(buf *bytes.Buffer, t2 *Trace) { _ = WriteJSONL(buf, t2) },
				".csv":   func(buf *bytes.Buffer, t2 *Trace) { _ = WriteCSV(buf, t2) },
			}[ext]
			write(&a, tr)
			write(&b, got)
			if !bytes.Equal(a.Bytes(), b.Bytes()) {
				t.Fatalf("%s%s: re-serialisation not byte-identical", tr.Name, ext)
			}
		}
	}
}

// TestTraceValidateRejects covers the validator's error paths.
func TestTraceValidateRejects(t *testing.T) {
	ok := func() *Trace {
		return &Trace{Version: Version, Name: "t", Events: []Event{
			{AtUS: 0, Tenant: "a", Op: OpJob, Kernel: "p-1", Scale: 0.1},
		}}
	}
	cases := map[string]func(*Trace){
		"bad version": func(tr *Trace) { tr.Version = 99 },
		"bad name":    func(tr *Trace) { tr.Name = "has space" },
		"no events":   func(tr *Trace) { tr.Events = nil },
		"out of order": func(tr *Trace) {
			tr.Events = append(tr.Events, Event{AtUS: -1, Tenant: "a", Op: OpJob, Kernel: "p-1", Scale: 1})
		},
		"empty tenant": func(tr *Trace) { tr.Events[0].Tenant = "" },
		"no kernel":    func(tr *Trace) { tr.Events[0].Kernel = "" },
		"zero scale":   func(tr *Trace) { tr.Events[0].Scale = 0 },
		"neg deadline": func(tr *Trace) { tr.Events[0].DeadlineUS = -1 },
		"neg weight":   func(tr *Trace) { tr.Events[0].Weight = -1 },
		"unknown op":   func(tr *Trace) { tr.Events[0].Op = "zap" },
		"join fields":  func(tr *Trace) { tr.Events[0].Op = OpJoin },
		"double join":  func(tr *Trace) { tr.Events = append(tr.Events, Event{AtUS: 1, Tenant: "a", Op: OpJoin}) },
		"leave absent": func(tr *Trace) { tr.Events = append(tr.Events, Event{AtUS: 1, Tenant: "x", Op: OpLeave}) },
		"job after leave": func(tr *Trace) {
			tr.Events = append(tr.Events,
				Event{AtUS: 1, Tenant: "a", Op: OpLeave},
				Event{AtUS: 2, Tenant: "a", Op: OpJob, Kernel: "p-1", Scale: 1})
		},
	}
	for name, mutate := range cases {
		tr := ok()
		mutate(tr)
		if err := tr.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if err := ok().Validate(); err != nil {
		t.Fatalf("baseline trace rejected: %v", err)
	}
	// Rejoin after leave is legal.
	tr := ok()
	tr.Events = append(tr.Events,
		Event{AtUS: 1, Tenant: "a", Op: OpLeave},
		Event{AtUS: 2, Tenant: "a", Op: OpJoin},
		Event{AtUS: 3, Tenant: "a", Op: OpJob, Kernel: "p-1", Scale: 1})
	if err := tr.Validate(); err != nil {
		t.Fatalf("rejoin rejected: %v", err)
	}
}

// TestSpecValidateRejects covers the generator validator.
func TestSpecValidateRejects(t *testing.T) {
	ok := func() *Spec {
		return &Spec{Name: "s", DurationUS: 1_000_000, Tenants: []TenantSpec{{
			Name: "a", Kernel: "p-1",
			Arrival: Arrival{Kind: ArrivePoisson, RateHz: 10},
			Size:    Size{Kind: SizeFixed, Mean: 0.1},
		}}}
	}
	cases := []func(*Spec){
		func(s *Spec) { s.Name = "" },
		func(s *Spec) { s.DurationUS = 0 },
		func(s *Spec) { s.Tenants = nil },
		func(s *Spec) { s.Tenants[0].Name = "" },
		func(s *Spec) { s.Tenants = append(s.Tenants, s.Tenants[0]) },
		func(s *Spec) { s.Tenants[0].Kernel = "" },
		func(s *Spec) { s.Tenants[0].Arrival.RateHz = 0 },
		func(s *Spec) { s.Tenants[0].Arrival.Kind = "warp" },
		func(s *Spec) {
			s.Tenants[0].Arrival = Arrival{Kind: ArriveBursty, RateHz: 10, BurstFactor: 1, BurstFrac: 0.5}
		},
		func(s *Spec) {
			s.Tenants[0].Arrival = Arrival{Kind: ArriveBursty, RateHz: 10, BurstFactor: 4, BurstFrac: 0.5}
		},
		func(s *Spec) { s.Tenants[0].Arrival = Arrival{Kind: ArriveDiurnal, RateHz: 10} },
		func(s *Spec) { s.Tenants[0].Size.Mean = 0 },
		func(s *Spec) { s.Tenants[0].Size = Size{Kind: SizePareto, Mean: 1, Alpha: 1} },
		func(s *Spec) { s.Tenants[0].Size.Kind = "weird" },
		func(s *Spec) { s.Tenants[0].DeadlineUS = -1 },
		func(s *Spec) { s.Tenants[0].JoinUS = 2_000_000 },
		func(s *Spec) { s.Tenants[0].JoinUS = 500_000; s.Tenants[0].LeaveUS = 400_000 },
	}
	for i, mutate := range cases {
		s := ok()
		mutate(s)
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: accepted", i)
		}
	}
	if err := ok().Validate(); err != nil {
		t.Fatalf("baseline spec rejected: %v", err)
	}
}

// TestSimReplayDeterministic: the acceptance bar — replaying the same
// trace twice on the virtual clock yields a bit-identical Result.
func TestSimReplayDeterministic(t *testing.T) {
	tr, err := CompileByName("bursty-pareto")
	if err != nil {
		t.Fatal(err)
	}
	run := func() *Result {
		cfg := sim.DefaultConfig()
		cfg.Policy = sim.DWS
		r, err := RunSim(tr, SimOptions{Config: cfg})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	r1, r2 := run(), run()
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("nondeterministic sim replay:\n%v\n%v", r1, r2)
	}
	if r1.Sent == 0 || r1.OK == 0 {
		t.Fatalf("degenerate result: %v", r1)
	}
}

// TestSimReplayAllPolicies: every policy replays every catalog scenario
// without error and completes most jobs outside the storm.
func TestSimReplayAllPolicies(t *testing.T) {
	if testing.Short() {
		t.Skip("full catalog sweep")
	}
	for _, name := range CatalogNames() {
		tr, err := CompileByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, pol := range []sim.Policy{sim.ABP, sim.EP, sim.DWS, sim.DWSNC, sim.GO} {
			cfg := sim.DefaultConfig()
			cfg.Policy = pol
			r, err := RunSim(tr, SimOptions{Config: cfg})
			if err != nil {
				t.Fatalf("%s/%v: %v", name, pol, err)
			}
			if r.Sent == 0 {
				t.Fatalf("%s/%v: nothing sent", name, pol)
			}
			if name != "overload-storm" && r.OKRate() < 0.5 {
				t.Errorf("%s/%v: ok rate %.2f suspiciously low\n%s", name, pol, r.OKRate(), r.Table())
			}
			if r.Policy != pol.String() || r.Substrate != "sim" || r.Scenario != name {
				t.Fatalf("%s/%v: mislabeled result %v", name, pol, r)
			}
		}
	}
}

// TestSimWeightsRequireDWS: gold-qos declares weights; under DWS they
// enable the arbiter, under other policies they are ignored rather than
// erroring.
func TestSimWeightsRequireDWS(t *testing.T) {
	tr, err := CompileByName("gold-qos")
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range []sim.Policy{sim.DWS, sim.ABP, sim.GO} {
		cfg := sim.DefaultConfig()
		cfg.Policy = pol
		if _, err := RunSim(tr, SimOptions{Config: cfg}); err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
	}
}

// TestSummarizeAndRank covers the metric fold and ranking helpers.
func TestSummarizeAndRank(t *testing.T) {
	outs := []Outcome{
		{Tenant: "a", Status: "ok", LatencyMS: 10},
		{Tenant: "a", Status: "ok", LatencyMS: 20},
		{Tenant: "a", Status: "late", LatencyMS: 50},
		{Tenant: "a", Status: "rejected"},
		{Tenant: "b", Status: "ok", LatencyMS: 15},
		{Tenant: "b", Status: "expired"},
		{Tenant: "b", Status: "error"},
	}
	r := Summarize("t", "DWS", "sim", outs, 123)
	if r.Sent != 7 || r.OK != 3 || r.Late != 1 || r.Expired != 1 || r.Rejected != 1 || r.Errors != 1 {
		t.Fatalf("counts wrong: %v", r)
	}
	if len(r.Tenants) != 2 || r.Tenants[0].Tenant != "a" || r.Tenants[0].Sent != 4 {
		t.Fatalf("tenant fold wrong: %+v", r.Tenants)
	}
	if r.Fairness <= 0 || r.Fairness > 1 {
		t.Fatalf("fairness %v", r.Fairness)
	}
	if r.Latency.P50 <= 0 || r.MakespanMS != 123 {
		t.Fatalf("latency fold wrong: %+v", r)
	}
	if got := r.OKRate(); got < 0.42 || got > 0.43 {
		t.Fatalf("OKRate = %v", got)
	}
	if !strings.Contains(r.String(), "t/DWS") || !strings.Contains(r.Table(), "tenant") {
		t.Fatal("render helpers")
	}
	worse := Summarize("t", "ABP", "sim", []Outcome{{Tenant: "a", Status: "ok", LatencyMS: 99}}, 200)
	ranked := RankByP95([]*Result{worse, r})
	if ranked[0].Policy != "DWS" {
		t.Fatalf("ranking wrong: %v first", ranked[0].Policy)
	}
}
