package sim

import (
	"math"
	"testing"
	"testing/quick"
)

// TestWallForWarm: with a warm cache, wall time is work × warm rate.
func TestWallForWarm(t *testing.T) {
	if got := wallFor(100, 1000, 500, 1.0, 2.0); got != 100 {
		t.Fatalf("warm wall = %v, want 100", got)
	}
	if got := wallFor(100, 1000, 500, 1.5, 2.0); got != 150 {
		t.Fatalf("warm wall with LLC = %v, want 150", got)
	}
}

// TestWallForCold: fully inside the cold window, wall time is work × cold
// rate.
func TestWallForCold(t *testing.T) {
	// coldUntil far away: 100 work at rate 1 × factor 2 = 200 wall.
	if got := wallFor(100, 0, 1_000_000, 1.0, 2.0); got != 200 {
		t.Fatalf("cold wall = %v, want 200", got)
	}
}

// TestWallForStraddle: a segment straddling the cold boundary pays the
// cold rate only for the cold part.
func TestWallForStraddle(t *testing.T) {
	// Cold window of 100µs wall at rate 2 covers 50 work; the remaining
	// 50 work runs warm: total 100 + 50 = 150.
	if got := wallFor(100, 0, 100, 1.0, 2.0); got != 150 {
		t.Fatalf("straddle wall = %v, want 150", got)
	}
}

// TestWorkForInverse: workFor inverts wallFor at the endpoints.
func TestWorkForInverse(t *testing.T) {
	cases := []struct {
		work            float64
		start, coldTill int64
		warm, cold      float64
	}{
		{100, 1000, 500, 1.0, 2.0},
		{100, 0, 1_000_000, 1.0, 2.0},
		{100, 0, 100, 1.0, 2.0},
		{1234, 50, 400, 1.3, 1.8},
	}
	for _, c := range cases {
		wall := wallFor(c.work, c.start, c.coldTill, c.warm, c.cold)
		got := workFor(int64(math.Ceil(wall)), c.start, c.coldTill, c.warm, c.cold)
		if got < c.work-1e-6 {
			t.Fatalf("workFor(wallFor(%v)) = %v", c.work, got)
		}
	}
}

// TestPropertyRates: wallFor is monotone in work, never less than warm
// execution, and workFor never exceeds the work implied by elapsed time
// at the warm rate.
func TestPropertyRates(t *testing.T) {
	f := func(workRaw uint16, startRaw, coldRaw uint16, warmRaw, coldFRaw uint8) bool {
		work := float64(workRaw%5000) + 1
		start := int64(startRaw)
		coldUntil := int64(coldRaw)
		warm := 1 + float64(warmRaw%100)/100   // [1, 2)
		coldF := 1 + float64(coldFRaw%200)/100 // [1, 3)

		wall := wallFor(work, start, coldUntil, warm, coldF)
		if wall < work*warm-1e-9 {
			return false // faster than warm execution is impossible
		}
		if wall > work*warm*coldF+1e-9 {
			return false // slower than fully-cold execution is impossible
		}
		bigger := wallFor(work+1, start, coldUntil, warm, coldF)
		if bigger < wall {
			return false // monotone in work
		}
		// Inverse bounds.
		back := workFor(int64(wall), start, coldUntil, warm, coldF)
		return back <= work+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestZeroWork: zero work takes zero wall time and vice versa.
func TestZeroWork(t *testing.T) {
	if wallFor(0, 0, 100, 1, 2) != 0 {
		t.Fatal("zero work should take zero wall")
	}
	if workFor(0, 0, 100, 1, 2) != 0 {
		t.Fatal("zero wall should do zero work")
	}
	if workFor(-5, 0, 100, 1, 2) != 0 {
		t.Fatal("negative elapsed should do zero work")
	}
}

// TestEventOrdering: the event heap pops by (time, seq), whatever order
// the events were pushed in.
func TestEventOrdering(t *testing.T) {
	m := &Machine{cfg: DefaultConfig()}
	m.cfg.MaxEvents = 3
	var got []int
	m.schedule(50, func() { got = append(got, 3) })
	m.schedule(10, func() { got = append(got, 1) })
	m.schedule(10, func() { got = append(got, 2) }) // same time, later seq
	for len(m.events) > 0 {
		if err := m.step(); err != nil {
			t.Fatal(err)
		}
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

// TestEventHeapSorts: popping drains any push sequence in (at, seq)
// order, checked against the heap property after every operation.
func TestEventHeapSorts(t *testing.T) {
	heapOK := func(h eventHeap) bool {
		for i := 1; i < len(h); i++ {
			if h[i].before(&h[(i-1)/2]) {
				return false
			}
		}
		return true
	}
	f := func(ats []uint8) bool {
		var h eventHeap
		for i, at := range ats {
			h.push(event{at: int64(at % 16), seq: int64(i + 1)})
			if !heapOK(h) {
				return false
			}
		}
		var prev event
		for n := len(h); n > 0; n-- {
			e := h.pop()
			if !heapOK(h) || len(h) != n-1 {
				return false
			}
			if e.at < prev.at || (e.at == prev.at && e.seq <= prev.seq) {
				return false
			}
			prev = e
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestScheduleClampsToNow: events cannot be scheduled in the past.
func TestScheduleClampsToNow(t *testing.T) {
	m := &Machine{cfg: DefaultConfig()}
	m.now = 100
	m.schedule(50, func() {})
	if m.events[0].at != 100 {
		t.Fatalf("event at %d, want clamped to 100", m.events[0].at)
	}
}
