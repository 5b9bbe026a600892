//go:build linux || darwin

package mproc

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestRunWorkerRejectsIndexOutOfRange: `dwsmp -index N` hands N straight
// to RunWorker, which refuses a slot outside [0, programs) before it
// creates or maps the table.
func TestRunWorkerRejectsIndexOutOfRange(t *testing.T) {
	path := filepath.Join(t.TempDir(), "core.table")
	for _, idx := range []int{-2, 3, 7} {
		err := RunWorker(WorkerConfig{TablePath: path, Cores: 4, Programs: 3, Index: idx, Kernel: "FFT"})
		if err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Errorf("index %d of 3 programs: error %v, want out of range", idx, err)
		}
	}
	if matches, _ := filepath.Glob(path + "*"); len(matches) != 0 {
		t.Errorf("a refused worker left %v behind", matches)
	}
}
