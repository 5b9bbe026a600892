package deque

import (
	"bytes"
	"testing"
)

// FuzzDequeOps is the differential harness: every implementation replays
// the same single-threaded operation sequence against a fresh Locked
// reference and must match it op for op — same presence, same pointer,
// same Len — and, after a full drain, have delivered every pushed value
// exactly once.
func FuzzDequeOps(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2, 0, 1, 1, 2})
	f.Add([]byte{0, 1, 0, 1, 0, 1})
	f.Add(bytes.Repeat([]byte{0}, 100))
	f.Add([]byte{2, 2, 1, 1})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 1, 2, 1}) // force ring growth, then drain both ends
	f.Add([]byte{0, 2, 2, 0, 2, 1, 0, 1, 2})                // single-element takes from both ends
	f.Fuzz(func(t *testing.T, ops []byte) {
		for _, kind := range Kinds() {
			runDifferential(t, kind, ops)
		}
	})
}

// runDifferential replays ops (op%3: 0=Push, 1=Pop, 2=Steal) through one
// engine and the Locked reference in lockstep.
func runDifferential(t *testing.T, kind Kind, ops []byte) {
	t.Helper()
	eng := NewEngine[int](kind, 4)
	ref := NewLocked[int](4)

	vals := make([]int, len(ops)) // stable addresses: both sides push &vals[i]
	pushes := 0
	delivered := make(map[int]int) // engine-side delivery count per value
	note := func(i int, op string, v *int) {
		if v == nil {
			return
		}
		if *v < 0 || *v >= pushes {
			t.Fatalf("[%v] op %d: %s returned never-pushed value %d", kind, i, op, *v)
		}
		delivered[*v]++
	}

	for i, op := range ops {
		switch op % 3 {
		case 0:
			vals[pushes] = pushes
			v := &vals[pushes]
			pushes++
			eng.Push(v)
			ref.Push(v)
		case 1:
			a, b := eng.Pop(), ref.Pop()
			note(i, "Pop", a)
			if a != b {
				t.Fatalf("[%v] op %d: Pop = %v, reference = %v", kind, i, fmtVal(a), fmtVal(b))
			}
		case 2:
			a, b := eng.Steal(), ref.Steal()
			note(i, "Steal", a)
			if a != b {
				t.Fatalf("[%v] op %d: Steal = %v, reference = %v", kind, i, fmtVal(a), fmtVal(b))
			}
		}
		if el, rl := eng.Len(), ref.Len(); el != rl {
			t.Fatalf("[%v] op %d: Len %d != reference %d", kind, i, el, rl)
		}
	}

	// Drain the engine so exactly-once is checkable. The bound makes a
	// hypothetical non-terminating drain a test failure, not a fuzz hang.
	for j := 0; j < 2*len(ops)+16; j++ {
		v := eng.Pop()
		if v == nil && eng.Len() <= 0 {
			break
		}
		note(-1, "drain", v)
	}
	if eng.Len() > 0 {
		t.Fatalf("[%v] drain did not empty the deque: Len=%d", kind, eng.Len())
	}

	for v := 0; v < pushes; v++ {
		if n := delivered[v]; n != 1 {
			t.Fatalf("[%v] exactly-once broken: value %d of %d delivered %d times", kind, v, pushes, n)
		}
	}
}

func fmtVal(v *int) any {
	if v == nil {
		return "nil"
	}
	return *v
}
