// Livemix: two real computations co-running on the live work-stealing
// runtime inside one process.
//
// A real FFT and a real parallel mergesort (from internal/kernels) share
// 8 core slots under DWS. The printed counters show the space-sharing
// protocol at work: the mergesort's merge phases release slots (Sleeps),
// and both programs claim or reclaim slots through the shared core
// allocation table.
//
//	go run ./examples/livemix
package main

import (
	"fmt"
	"log"
	"runtime"
	"sync"
	"time"

	"dws"
	"dws/internal/kernels"
)

func main() {
	runtime.GOMAXPROCS(8)
	sys, err := dws.NewSystem(dws.RuntimeConfig{
		Cores:    8,
		Programs: 2,
		Policy:   dws.PolicyDWS,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()

	fft, _ := kernels.ByName("FFT")
	ms, _ := kernels.ByName("Mergesort")

	var wg sync.WaitGroup
	for _, k := range []kernels.Spec{fft, ms} {
		prog, err := sys.NewProgram(k.Name)
		if err != nil {
			log.Fatal(err)
		}
		wg.Add(1)
		go func(k kernels.Spec, prog *dws.Program) {
			defer wg.Done()
			for run := 0; run < 3; run++ {
				task := k.NewTask(0.25)
				start := time.Now()
				if err := prog.Run(task); err != nil {
					log.Printf("%s: %v", k.Name, err)
					return
				}
				fmt.Printf("%-10s run %d: %v\n", k.Name, run+1, time.Since(start).Round(time.Millisecond))
			}
			fmt.Printf("%-10s stats: %+v\n", k.Name, prog.Stats())
		}(k, prog)
	}
	wg.Wait()
}
