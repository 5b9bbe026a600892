package main

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
)

// declFile is BENCHMARK.json: the benchmark's contract with whoever runs
// it. The program reads its workloads, metric names, units and bounds from
// there, so the file and the output cannot drift apart unnoticed.
type declFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadDecl `json:"workloads"`
	EndToEnd   []metricDecl   `json:"end_to_end"`
	PerLayer   []metricDecl   `json:"per_layer"`
}

type workloadDecl struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricDecl struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"` // end-to-end metrics only
}

var (
	nameRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRe = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func loadDecl(path string) (*declFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("%w (run from the repository root)", err)
	}
	var d declFile
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if err := d.validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// validate holds the declarations to the rules a name, a unit and a bound
// have to meet, and to each name being used once.
func (d *declFile) validate() error {
	seen := map[string]bool{}
	use := func(name string) error {
		if !nameRe.MatchString(name) {
			return fmt.Errorf("name %q is not made of letters, digits, _ . - (at most 64, starting with a letter or digit)", name)
		}
		if seen[name] {
			return fmt.Errorf("name %q is used twice", name)
		}
		seen[name] = true
		return nil
	}
	if d.RunSeconds < 1 || d.RunSeconds > 60 {
		return fmt.Errorf("run_seconds %d is outside 1..60", d.RunSeconds)
	}
	for _, w := range d.Workloads {
		if err := use(w.Name); err != nil {
			return err
		}
	}
	hasSetup := false
	for _, m := range d.EndToEnd {
		if err := use(m.Name); err != nil {
			return err
		}
		if m.Bound == nil || *m.Bound < 0 || *m.Bound > 0.25 {
			return fmt.Errorf("end-to-end metric %s needs a bound in [0, 0.25]", m.Name)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		return fmt.Errorf("end_to_end has no setup_s (unit s, better lower)")
	}
	for _, m := range d.PerLayer {
		if err := use(m.Name); err != nil {
			return err
		}
		if m.Bound != nil {
			return fmt.Errorf("per-layer metric %s may not carry a bound", m.Name)
		}
	}
	for _, m := range append(append([]metricDecl{}, d.EndToEnd...), d.PerLayer...) {
		if !unitRe.MatchString(m.Unit) {
			return fmt.Errorf("metric %s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			return fmt.Errorf("metric %s: better is %q, want lower or higher", m.Name, m.Better)
		}
	}
	return nil
}

func (d *declFile) workloadNames() []string {
	names := make([]string, len(d.Workloads))
	for i, w := range d.Workloads {
		names[i] = w.Name
	}
	return names
}

func (d *declFile) hasWorkload(name string) bool {
	for _, w := range d.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

func (d *declFile) unitOf(name string) string {
	for _, m := range append(append([]metricDecl{}, d.EndToEnd...), d.PerLayer...) {
		if m.Name == name {
			return m.Unit
		}
	}
	return "?"
}

// checkDeclared compares what a run measured with what BENCHMARK.json
// declares: every metric of the list the run owes (want) must have been
// measured, and nothing may be printed that no list declares.
func checkDeclared(d *declFile, want []metricDecl, got map[string]float64) []string {
	var problems []string
	for _, m := range want {
		if _, ok := got[m.Name]; !ok {
			problems = append(problems, fmt.Sprintf("metric %s is declared but was not measured", m.Name))
		}
	}
	for _, name := range sortedKeys(got) {
		if d.unitOf(name) == "?" {
			problems = append(problems, fmt.Sprintf("metric %s was measured but is not declared in %s", name, declPath))
		}
	}
	return problems
}
