package main

import (
	"io"
	"reflect"
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

// TestDefaultFlagsAreDefaultConfig: on every path the machine is
// sim.DefaultConfig() plus the flags given — the one-cell inspector
// (-bench) reproduces the cell -exp prints because neither builds a
// config of its own.
func TestDefaultFlagsAreDefaultConfig(t *testing.T) {
	for _, args := range [][]string{
		{"-bench", "p-1,p-8", "-policy", "ABP"},
		{"-scenario", "overload-storm", "-policy", "ABP"},
		{"-exp", "fig4", "-policy", "ABP"},
	} {
		o, err := parse(args, io.Discard)
		if err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		want := sim.DefaultConfig()
		want.Policy = sim.ABP
		if !reflect.DeepEqual(o.cfg, want) {
			t.Errorf("%v: config %+v, want %+v", args, o.cfg, want)
		}
	}
	o, err := parse([]string{"-cores", "8", "-socket", "4", "-tsleep", "32", "-coord", "5000", "-seed", "3"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	want := sim.DefaultConfig()
	want.Cores, want.SocketSize, want.TSleep, want.CoordPeriodUS, want.Seed = 8, 4, 32, 5000, 3
	if !reflect.DeepEqual(o.cfg, want) {
		t.Errorf("machine flags: config %+v, want %+v", o.cfg, want)
	}
}

// TestParseRejects: a command line that cannot run is refused by parse,
// so nothing is simulated first — an unknown -format used to be found
// out after the first table had been computed.
func TestParseRejects(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-exp", "fig4", "-scenario", "overload-storm"}, "mutually exclusive"},
		{[]string{"-exp", "all", "-format", "yaml"}, "unknown format"},
		{[]string{"-exp", "related"}, "fig4"},
		{[]string{"-policy", "bws"}, "DWS-NC"},
		{[]string{"-scenario", "overload-storm", "-shards", "3", "-spill", "sideways"}, "spill"},
	} {
		_, err := parse(c.args, io.Discard)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%v: error %v, want one containing %q", c.args, err, c.want)
		}
	}
}

// TestRunModes drives each mode end to end at a small scale.
func TestRunModes(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-bench", "p-1,p-8", "-scale", "0.05", "-runs", "1"}, "policy=DWS cores=16 seed=1"},
		{[]string{"-scenario", "steady-uniform"}, "alpha"},
		{[]string{"-scenario", "overload-storm", "-shards", "3"}, "next-preferred [fedsim]"},
		{[]string{"-exp", "table2", "-format", "csv"}, "# Table 2"},
	} {
		o, err := parse(c.args, io.Discard)
		if err != nil {
			t.Fatalf("%v: %v", c.args, err)
		}
		var out strings.Builder
		if err := o.run(&out); err != nil {
			t.Fatalf("%v: %v", c.args, err)
		}
		if !strings.Contains(out.String(), c.want) {
			t.Errorf("%v: output lacks %q:\n%s", c.args, c.want, out.String())
		}
	}
}
