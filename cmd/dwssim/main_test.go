package main

import (
	"strings"
	"testing"
	"time"

	"dws/internal/sim"
)

// TestSummaryLine pins that the run summary names what was simulated and
// the simulator's own speed.
func TestSummaryLine(t *testing.T) {
	res := &sim.Results{EndTimeUS: 1_500_000, Events: 42, CoreBusyUS: []int64{1_000_000}}
	line := summaryLine(sim.DWS, 16, 7, res, 2*time.Second)
	for _, want := range []string{"policy=DWS", "cores=16", "seed=7", "events=42", "wall=2.000s", "events/s=21"} {
		if !strings.Contains(line, want) {
			t.Errorf("summary %q missing %q", line, want)
		}
	}
}
