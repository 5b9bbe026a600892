package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

// TestSuiteIdenticalAcrossGOMAXPROCS: the suites replay one prepared
// scenario under several policies at once, so their output must not depend
// on how many replays run side by side. Both suites, serial against four at
// a time, must marshal to the same bytes and log the same lines in the same
// order; under -race this is also the check that concurrent replays share
// nothing they write.
func TestSuiteIdenticalAcrossGOMAXPROCS(t *testing.T) {
	if testing.Short() {
		t.Skip("four full suite runs")
	}
	run := func(procs int) (file []byte, log []string) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		logf := func(format string, args ...any) { log = append(log, fmt.Sprintf(format, args...)) }
		sc, err := RunScenarioSuite(logf)
		if err != nil {
			t.Fatal(err)
		}
		fed, err := RunFederationSuite(logf)
		if err != nil {
			t.Fatal(err)
		}
		file, err = json.Marshal([]any{sc, fed})
		if err != nil {
			t.Fatal(err)
		}
		return file, log
	}
	serialFile, serialLog := run(1)
	fannedFile, fannedLog := run(4)
	if !bytes.Equal(serialFile, fannedFile) {
		t.Error("suite results differ between GOMAXPROCS 1 and 4")
	}
	if len(serialLog) != len(fannedLog) {
		t.Fatalf("%d log lines at GOMAXPROCS 1, %d at 4", len(serialLog), len(fannedLog))
	}
	for i := range serialLog {
		if serialLog[i] != fannedLog[i] {
			t.Fatalf("log line %d differs:\n  1: %s\n  4: %s", i, serialLog[i], fannedLog[i])
		}
	}
}

// TestFanOutCallsEachIndexOnce covers the edges the suites do not: more
// work than goroutines, less work than goroutines, none, and failures.
func TestFanOutCallsEachIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 3, 100} {
		calls := make([]atomic.Int32, n)
		if err := fanOut(n, func(i int) error { calls[i].Add(1); return nil }); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for i := range calls {
			if c := calls[i].Load(); c != 1 {
				t.Fatalf("n=%d: fn(%d) called %d times", n, i, c)
			}
		}
	}
	// Failures come back in index order, whichever replay finished first.
	err := fanOut(50, func(i int) error {
		if i%20 == 7 {
			return fmt.Errorf("replay %d failed", i)
		}
		return nil
	})
	if want := "replay 7 failed\nreplay 27 failed\nreplay 47 failed"; err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %q", err, want)
	}
}
