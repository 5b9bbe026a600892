package main

import (
	"strings"
	"testing"
	"time"

	"dws/internal/deque"
	"dws/internal/sim"
)

// TestEngineFromFlag pins the -engine flag contract: unknown names are
// rejected before the simulation starts, the empty flag defaults to
// Chase–Lev, and DWS_DEQUE_ENGINE fills in when the flag is unset.
func TestEngineFromFlag(t *testing.T) {
	t.Setenv(deque.EngineEnv, "")
	cases := []struct {
		in      string
		want    deque.Kind
		wantErr bool
	}{
		{"", deque.KindChaseLev, false},
		{"chaselev", deque.KindChaseLev, false},
		{"LOCKED", deque.KindLocked, false},
		{"relaxed", deque.KindRelaxed, false},
		{"warp-drive", 0, true},
	}
	for _, c := range cases {
		got, err := engineFromFlag(c.in)
		if c.wantErr {
			if err == nil {
				t.Errorf("engineFromFlag(%q) accepted an unknown engine", c.in)
			}
			continue
		}
		if err != nil {
			t.Errorf("engineFromFlag(%q): %v", c.in, err)
		} else if got != c.want {
			t.Errorf("engineFromFlag(%q) = %v, want %v", c.in, got, c.want)
		}
	}

	t.Run("env-fallback", func(t *testing.T) {
		t.Setenv(deque.EngineEnv, "relaxed")
		got, err := engineFromFlag("")
		if err != nil {
			t.Fatal(err)
		}
		if got != deque.KindRelaxed {
			t.Fatalf("empty flag with %s=relaxed = %v, want relaxed", deque.EngineEnv, got)
		}
	})
}

// TestSummaryLineReportsEngine pins that the run summary names the active
// engine, so logged runs are attributable to the deque they used, and the
// simulator's own speed.
func TestSummaryLineReportsEngine(t *testing.T) {
	res := &sim.Results{EndTimeUS: 1_500_000, Events: 42, CoreBusyUS: []int64{1_000_000}}
	line := summaryLine(sim.DWS, deque.KindRelaxed, 16, 7, res, 2*time.Second)
	for _, want := range []string{"policy=DWS", "engine=relaxed", "cores=16", "seed=7", "events=42", "wall=2.000s", "events/s=21"} {
		if !strings.Contains(line, want) {
			t.Errorf("summary %q missing %q", line, want)
		}
	}
}
