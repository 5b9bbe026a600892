// Package deque provides the work-stealing double-ended queue of the live
// runtime and its reference implementation.
//
//   - Deque: a lock-free Chase–Lev deque storing pointers. The owner pushes
//     and pops at the bottom; any number of thieves steal from the top with
//     a compare-and-swap. Every worker of internal/rt owns one.
//   - Locked: a mutex-protected deque with identical semantics: the
//     reference in differential tests, and the runtime's injection queue.
//
// The Engine interface and NewEngine let tests and benchmarks drive either
// through one harness. The zero value of the deque types is not usable;
// construct with New / NewLocked.
package deque

import "sync/atomic"

// cachePad separates fields written by different goroutines onto distinct
// cache lines. 128 bytes covers the two-line destructive-interference
// granularity of modern x86 (the adjacent-line prefetcher pairs lines), the
// same span the Go runtime pads its own per-P state by.
const cachePad = 128

// Deque is a lock-free Chase–Lev work-stealing deque of *T.
//
// The owner goroutine may call Push and Pop. Any goroutine may call Steal
// and Len. The implementation follows Chase & Lev, "Dynamic Circular
// Work-Stealing Deque" (SPAA 2005); retired buffers are reclaimed by the
// garbage collector, and all element slots are atomic pointers so the
// structure is race-detector clean.
//
// top (CASed by thieves) and bottom (written by the owner on every
// push/pop) live on separate cache lines: without the padding every steal
// CAS invalidates the owner's line and every push bounces the thieves',
// which measurably taxes the owner's fast path under steal pressure.
type Deque[T any] struct {
	top    atomic.Int64 // next slot thieves steal from
	_      [cachePad - 8]byte
	bottom atomic.Int64 // next slot the owner pushes to
	_      [cachePad - 8]byte
	buf    atomic.Pointer[ring[T]]
}

const minCapacity = 8

// New returns an empty deque whose initial buffer holds capacity elements.
// Capacities below the minimum (8) are rounded up; capacities are rounded
// up to a power of two.
func New[T any](capacity int) *Deque[T] {
	c := minCapacity
	for c < capacity {
		c <<= 1
	}
	d := &Deque[T]{}
	d.buf.Store(newRing[T](c))
	return d
}

// Push appends v at the bottom of the deque. Only the owner may call Push.
// v must not be nil: nil is the "empty" sentinel of Pop and Steal.
func (d *Deque[T]) Push(v *T) {
	if v == nil {
		panic("deque: Push(nil)")
	}
	b := d.bottom.Load()
	t := d.top.Load()
	r := d.buf.Load()
	if b-t >= int64(r.cap) {
		r = r.grow(t, b)
		d.buf.Store(r)
	}
	r.store(b, v)
	// Publish the element before publishing the new bottom.
	d.bottom.Store(b + 1)
}

// Pop removes and returns the most recently pushed element, or nil if the
// deque was empty. Only the owner may call Pop.
func (d *Deque[T]) Pop() *T {
	b := d.bottom.Load() - 1
	r := d.buf.Load()
	d.bottom.Store(b)
	t := d.top.Load()
	if b < t {
		// Deque was empty; restore bottom.
		d.bottom.Store(t)
		return nil
	}
	v := r.load(b)
	if b > t {
		return v
	}
	// Single element left: race against thieves for it.
	won := d.top.CompareAndSwap(t, t+1)
	d.bottom.Store(t + 1)
	if !won {
		return nil
	}
	return v
}

// Steal removes and returns the oldest element, or nil if the deque was
// empty or the steal lost a race (callers should treat both as one failed
// attempt). Any goroutine may call Steal.
func (d *Deque[T]) Steal() *T {
	t := d.top.Load()
	b := d.bottom.Load()
	if t >= b {
		return nil
	}
	r := d.buf.Load()
	v := r.load(t)
	if !d.top.CompareAndSwap(t, t+1) {
		return nil
	}
	return v
}

// Len reports the number of queued elements. It is a racy snapshot when
// used concurrently; it never reports a negative length.
func (d *Deque[T]) Len() int {
	b := d.bottom.Load()
	t := d.top.Load()
	if b < t {
		return 0
	}
	return int(b - t)
}

// Empty reports whether the deque appears empty.
func (d *Deque[T]) Empty() bool { return d.Len() == 0 }

// Cap reports the current buffer capacity. It grows automatically.
func (d *Deque[T]) Cap() int { return d.buf.Load().cap }
