package deque

import "sync"

// Locked is a mutex-protected work-stealing deque with the same semantics
// and API as Deque. It is the reference implementation for differential
// tests and is also useful where contention is known to be negligible.
type Locked[T any] struct {
	mu   sync.Mutex
	elts []*T
}

// NewLocked returns an empty mutex-based deque.
func NewLocked[T any](capacity int) *Locked[T] {
	return &Locked[T]{elts: make([]*T, 0, capacity)}
}

// Push appends v at the bottom. v must not be nil.
func (d *Locked[T]) Push(v *T) {
	if v == nil {
		panic("deque: Push(nil)")
	}
	d.mu.Lock()
	d.elts = append(d.elts, v)
	d.mu.Unlock()
}

// Pop removes and returns the most recently pushed element, or nil.
func (d *Locked[T]) Pop() *T {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := len(d.elts)
	if n == 0 {
		return nil
	}
	v := d.elts[n-1]
	d.elts[n-1] = nil
	d.elts = d.elts[:n-1]
	return v
}

// Steal removes and returns the oldest element, or nil.
func (d *Locked[T]) Steal() *T {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.elts) == 0 {
		return nil
	}
	v := d.elts[0]
	if len(d.elts) == 1 {
		// Drained: keep the backing array. Slicing the head off here too
		// would walk a one-at-a-time Push/Steal user (the runtime's
		// injection queue, once per job) off the end of it, and every
		// Push after that would allocate.
		d.elts[0] = nil
		d.elts = d.elts[:0]
	} else {
		d.elts = d.elts[1:]
	}
	return v
}

// Len reports the number of queued elements.
func (d *Locked[T]) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.elts)
}

// Empty reports whether the deque is empty.
func (d *Locked[T]) Empty() bool { return d.Len() == 0 }
