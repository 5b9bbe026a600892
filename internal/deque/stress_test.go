package deque

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// stressDeque drives one owner (Push/Pop per a seeded script) against
// `thieves` concurrent stealers and asserts the work-stealing contract:
//
//   - exactly-once: every pushed value is consumed by exactly one Pop or
//     Steal — nothing lost, nothing duplicated;
//   - per-thief monotonicity: steals take the FIFO end, so the values one
//     thief observes are strictly increasing;
//   - Len sanity: never negative, never more than the values pushed so far.
func stressDeque(t *testing.T, d Engine[int], seed int64, thieves, pushes int) {
	t.Helper()
	vals := make([]int, pushes) // stable addresses for the *int payloads
	for i := range vals {
		vals[i] = i
	}

	var stop atomic.Bool
	stolen := make([][]int, thieves)
	var wg sync.WaitGroup
	for i := 0; i < thieves; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for {
				if v := d.Steal(); v != nil {
					stolen[i] = append(stolen[i], *v)
					continue
				}
				if stop.Load() {
					return
				}
				runtime.Gosched()
			}
		}(i)
	}

	rng := rand.New(rand.NewSource(seed))
	var popped []int
	for i := 0; i < pushes; i++ {
		d.Push(&vals[i])
		if n := d.Len(); n < 0 || n > i+1 {
			t.Errorf("Len() = %d after %d pushes", n, i+1)
		}
		// Seeded owner schedule: occasional Pop bursts and yields give the
		// thieves every interleaving shape.
		switch rng.Intn(4) {
		case 0:
			if v := d.Pop(); v != nil {
				popped = append(popped, *v)
			}
		case 1:
			runtime.Gosched()
		}
	}
	// Drain what the thieves leave behind. A nil Pop with Len > 0 means an
	// in-flight steal still holds the last entries; it clears with retries.
	for {
		if v := d.Pop(); v != nil {
			popped = append(popped, *v)
			continue
		}
		if d.Len() <= 0 {
			break
		}
		runtime.Gosched()
	}
	stop.Store(true)
	wg.Wait()

	seen := make([]int, pushes) // consumption count per value
	for _, v := range popped {
		seen[v]++
	}
	for i, s := range stolen {
		prev := -1
		for _, v := range s {
			seen[v]++
			if v <= prev {
				t.Errorf("thief %d stole %d after %d: steals must take the FIFO end in order", i, v, prev)
			}
			prev = v
		}
	}
	for v, n := range seen {
		if n != 1 {
			t.Fatalf("exactly-once broken: value %d of %d consumed %d times", v, pushes, n)
		}
	}
}

// TestEngineConcurrentStress is the seeded multi-thief battery, small
// enough to run under -race on every CI pass. The Locked rows hold the
// reference implementation to the identical contract: if an invariant ever
// fires on the lock-free deque but not here, the bug is in the deque, not
// the test.
func TestEngineConcurrentStress(t *testing.T) {
	for _, kind := range Kinds() {
		for _, thieves := range []int{1, 2, 4} {
			for seed := int64(1); seed <= 4; seed++ {
				t.Run(fmt.Sprintf("%v/thieves=%d/seed=%d", kind, thieves, seed), func(t *testing.T) {
					stressDeque(t, NewEngine[int](kind, 4), seed, thieves, 2000)
				})
			}
		}
	}
}

// FuzzDequeConcurrent explores randomized concurrent schedules on both
// implementations: the fuzzer picks the owner-script seed and the thief
// count, the invariants stay fixed. Complements FuzzDequeOps, which
// differentially fuzzes the single-threaded semantics against the Locked
// reference.
func FuzzDequeConcurrent(f *testing.F) {
	f.Add(int64(1), uint8(2))
	f.Add(int64(42), uint8(4))
	f.Add(int64(-7), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, thieves uint8) {
		n := int(thieves)%4 + 1
		for _, kind := range Kinds() {
			stressDeque(t, NewEngine[int](kind, 4), seed, n, 500)
		}
	})
}
